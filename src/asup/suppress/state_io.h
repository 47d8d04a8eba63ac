#ifndef ASUP_SUPPRESS_STATE_IO_H_
#define ASUP_SUPPRESS_STATE_IO_H_

#include <iosfwd>

#include "asup/suppress/defended_engine.h"
#include "asup/util/annotated_mutex.h"

namespace asup {

/// Defense-state persistence.
///
/// The suppression engines are stateful *by design*: Θ_R, the answer
/// cache, and the cover defenses' history determine what future queries
/// see. A deployment that restarts with empty state would re-run the
/// activation transient — re-issued queries would get *different* answers,
/// violating the deterministic-processing requirement of Section 2.1 and
/// handing a watching adversary a before/after comparison. These helpers
/// snapshot and restore the state so the engine resumes exactly where it
/// stopped.
///
/// Layouts, by defense:
///   AS-SIMPLE   'ASS2' fingerprint Θ_R cache
///   AS-ARBI     'ASA2' [AS-SIMPLE section with an empty cache] history
///               cache
///   AS-DECLINE  'ASD2' [same as AS-ARBI]
/// A snapshot only loads into an engine running the same defense.
///
/// The snapshot embeds γ, the corpus size, and the secret coin key; Load
/// refuses a snapshot taken under a different configuration (the coins
/// would not replay).
///
/// Format v2 additionally embeds a *content* fingerprint of the corpus
/// epoch the state was pinned to — the hash covers document ids, lengths
/// and term frequencies, never the epoch number, so a state saved from an
/// incrementally maintained engine restores into a freshly built engine
/// over the same corpus (and vice versa). Load still accepts v1 snapshots
/// (no content check beyond the corpus size). Save and Load must run
/// quiesced, with the engine's state epoch equal to the corpus the bytes
/// describe.
///
/// Because the quiesced contract replaces locking, these friends read the
/// engine's guarded state without its mutexes and are opted out of the
/// capability analysis (the attribute lives on the definitions in
/// state_io.cc).

/// Serializes the engine's state. Returns false on I/O failure. Caller
/// must be quiesced.
bool SaveDefenseState(const DefendedEngine& engine, std::ostream& out);

/// Restores a snapshot written by SaveDefenseState for the same defense.
/// Returns false on corruption or configuration mismatch; the engine is
/// unchanged on failure. Caller must be quiesced.
bool LoadDefenseState(DefendedEngine& engine, std::istream& in);

}  // namespace asup

#endif  // ASUP_SUPPRESS_STATE_IO_H_
