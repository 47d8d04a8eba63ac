#ifndef ASUP_ENGINE_SHARDED_SERVICE_H_
#define ASUP_ENGINE_SHARDED_SERVICE_H_

// The scatter-gather deployment is the MatchingEngine over a sharded index
// or a partitioned CorpusManager: one engine over N >= 1 partitions of one
// index (engine/search_engine.h).
#include "asup/engine/search_engine.h"

#endif  // ASUP_ENGINE_SHARDED_SERVICE_H_
