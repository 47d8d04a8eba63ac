#ifndef ASUP_SUPPRESS_AS_DECLINE_H_
#define ASUP_SUPPRESS_AS_DECLINE_H_

// AS-DECLINE (the decline defense of Section 5.2) is the DefendedEngine
// built from an AsDeclineConfig: one engine, one chain per defense
// (suppress/defended_engine.h).
#include "asup/suppress/defended_engine.h"

#endif  // ASUP_SUPPRESS_AS_DECLINE_H_
