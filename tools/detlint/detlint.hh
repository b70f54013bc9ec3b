/**
 * @file
 * Determinism lint: a standalone source-level analyzer for the
 * simulator sources.
 *
 * The repo's reproducibility claim is that a (config, seed) pair
 * fully determines every simulated cycle. That claim dies quietly
 * the moment simulation logic iterates an unordered container into
 * ordered output, reads a wall clock, or rolls an unseeded RNG.
 * detlint flags the source patterns that historically cause exactly
 * those bugs:
 *
 *   unordered-iteration  range-for / .begin() over a variable
 *                        declared as std::unordered_{map,set,...};
 *                        iteration order is hash-seed dependent
 *   wall-clock           std::chrono ...clock::now(), gettimeofday,
 *                        clock_gettime — real time in sim logic
 *   raw-random           rand()/srand()/std::random_device/mt19937
 *                        outside the sanctioned src/util/random
 *                        wrapper (the wrapper is seeded per run)
 *   pointer-keyed-map    std::{map,set,unordered_map,unordered_set}
 *                        keyed on a pointer type; ASLR makes the
 *                        ordering (and hash buckets) run-dependent
 *   uninit-member        scalar data member with no initializer in a
 *                        struct/class body; sim state structs with
 *                        indeterminate fields diverge across runs
 *   tick-wall-clock      a Component::tick override body that calls a
 *                        wall clock or touches a value assigned from
 *                        one; with the idle-skip kernel this is not
 *                        just nondeterministic but wrong — skipped
 *                        ticks never execute, so tick state must be a
 *                        function of the simulated cycle alone
 *
 * The rules run over the shared lexical scanner and allowlist
 * (tools/lint). It runs as a tier-1 ctest and a CI gate over src/,
 * bench/ and tools/.
 */

#ifndef MEMSEC_TOOLS_DETLINT_DETLINT_HH
#define MEMSEC_TOOLS_DETLINT_DETLINT_HH

#include "lint.hh"

namespace memsec::detlint {

/** detlint's rules over the shared scanner, allowlist and CLI. */
const lint::RuleSet &ruleSet();

} // namespace memsec::detlint

#endif // MEMSEC_TOOLS_DETLINT_DETLINT_HH
