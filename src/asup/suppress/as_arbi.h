#ifndef ASUP_SUPPRESS_AS_ARBI_H_
#define ASUP_SUPPRESS_AS_ARBI_H_

// AS-ARBI (paper Algorithm 2) is the DefendedEngine built from an
// AsArbiConfig: one engine, one chain per defense
// (suppress/defended_engine.h).
#include "asup/suppress/defended_engine.h"

#endif  // ASUP_SUPPRESS_AS_ARBI_H_
