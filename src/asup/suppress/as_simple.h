#ifndef ASUP_SUPPRESS_AS_SIMPLE_H_
#define ASUP_SUPPRESS_AS_SIMPLE_H_

// AS-SIMPLE (paper Algorithm 1) is the DefendedEngine built from an
// AsSimpleConfig: one engine, one chain per defense
// (suppress/defended_engine.h).
#include "asup/suppress/defended_engine.h"

#endif  // ASUP_SUPPRESS_AS_SIMPLE_H_
