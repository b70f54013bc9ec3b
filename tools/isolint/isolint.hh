/**
 * @file
 * Isolation lint: a source-level information-flow analyzer for the
 * scheduler sources.
 *
 * The dynamic proof layers (noninterference audit, leakage meter,
 * certifier) all check *behaviour*; isolint checks the *source*: a
 * secure scheduler's per-slot decisions must not read other domains'
 * state, because every such read is a potential channel from
 * co-runner demand into observer-visible timing. The linter taints
 * cross-domain state (per-domain transaction/prefetch queues swept
 * over all domains, and the controller's totals over them) as
 * sources and command-timing decisions as sinks, and flags the flows:
 *
 *   cross-domain-scan     a loop over every security domain (counting
 *                         loop bounded by numDomains(), or a range-for
 *                         over a domains collection) whose body reads
 *                         per-domain queue state, or any read of the
 *                         controller's queueTotals() (sums and bank
 *                         index over every domain's queue) — the
 *                         shapes of the FR-FCFS baseline's global pick
 *   occupancy-to-timing   an identifier assigned from a queue
 *                         occupancy read (.size()/.readCount()/
 *                         .writeCount()/.empty()) reaching a command
 *                         timing sink (actAt/casAt/turnEnd/...Skew) —
 *                         queue depth steering command cycles is the
 *                         exact leak the paper's fixed service closes
 *   timing-perturbation   a call to an injector hook that shifts
 *                         planned command cycles (slotSkew,
 *                         couplingSkew) — deliberate leak hooks that
 *                         may exist only where the certifier
 *                         provably refuses a certificate
 *
 * The rules run over the scanner and allowlist shared with detlint
 * (tools/lint). Every flow in src/sched is therefore either absent
 * or *argued* in the allowlist: the baseline is insecure by design,
 * the power-down scan is owner-gated, the injection hooks are
 * certifier-refused. It runs as a tier-1 ctest and a CI gate over
 * src/sched.
 */

#ifndef MEMSEC_TOOLS_ISOLINT_ISOLINT_HH
#define MEMSEC_TOOLS_ISOLINT_ISOLINT_HH

#include "lint.hh"

namespace memsec::isolint {

/** isolint's rules over the shared scanner, allowlist and CLI. */
const lint::RuleSet &ruleSet();

} // namespace memsec::isolint

#endif // MEMSEC_TOOLS_ISOLINT_ISOLINT_HH
