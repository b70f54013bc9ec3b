/**
 * @file
 * Cycle-driven simulation kernel with an idle-skip fast path.
 *
 * The simulator owns a list of components and advances a global DRAM
 * bus clock. Each component is ticked once per memory cycle; CPU-side
 * components internally iterate their CPU-clock sub-cycles. A simple
 * tick loop (rather than an event queue) is the right tool here: the
 * memory controller does work nearly every cycle under load, so
 * event-queue overhead would dominate without reducing work.
 *
 * Fixed service policies make the complementary case common too: the
 * next interesting cycle is statically known (the next slot boundary,
 * the next planned command, the next refresh epoch), so long idle
 * stretches can be skipped wholesale. The kernel caches each
 * component's wake hint and ticks, on an executed cycle, only the
 * components that are due or were poked; when none is due next cycle
 * it jumps the clock. A sleeping component is not called at all: when
 * it next runs (or when run() returns) one fastForward() call catches
 * up the whole span it slept through, so per-cycle accounting (CPU
 * clocks, stall counters, energy state residency) stays byte-identical
 * to the naive loop.
 *
 * A cached hint stays valid until the component ticks (it is
 * requeried right after) or another component mutates it. Such a
 * cross-component mutation must call poke() on its target first; the
 * kernel then catches the target up to the mutation point and
 * revalidates its hint. See docs/PERF.md for the contract and
 * tests/test_fastforward_diff.cc for the proof obligations.
 */

#ifndef MEMSEC_SIM_SIMULATOR_HH
#define MEMSEC_SIM_SIMULATOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace memsec {

class Serializer;
class Deserializer;
class Simulator;

/**
 * Base class for everything that participates in the tick loop.
 * Components are ticked in registration order; with fast-forward on,
 * only the ones that are due or were poked tick on a given cycle.
 */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;

    /** Advance this component by one DRAM bus cycle. */
    virtual void tick(Cycle now) = 0;

    /**
     * Fast-forward hint, queried right after tick(now) and after a
     * poke(): the earliest cycle > now at which this component's
     * tick() would do anything observable. Returning kNoCycle means
     * "no self-scheduled work; I only react to other components". The
     * contract: for every cycle c in (now, nextWakeCycle(now)), tick(c)
     * must be a no-op except for per-cycle accounting that
     * fastForward() reproduces exactly, unless poke() is called first.
     * The default (now + 1) declares every cycle interesting and
     * preserves the naive loop for components without a hint.
     */
    virtual Cycle
    nextWakeCycle(Cycle now) const
    {
        return now + 1;
    }

    /**
     * Catch up over the skipped span [from, to). Spans are contiguous
     * and in order: each starts where the previous tick or catch-up
     * ended, and one call may cover any number of skipped cycles.
     * Must reproduce byte-for-byte the per-cycle accounting tick()
     * would have performed over those cycles (CPU clock advance,
     * stall counters, energy state residency); the default assumes
     * tick() keeps no per-cycle books.
     */
    virtual void
    fastForward(Cycle from, Cycle to)
    {
        (void)from;
        (void)to;
    }

    /**
     * Announce that this component is about to be mutated by another
     * one (a request enqueued, a completion delivered) or that an
     * input of its wake hint changed. Call it before the mutation:
     * the kernel first catches the component up to the current point
     * of the cycle, then revalidates its hint. A no-op on the
     * component that is ticking and outside a running kernel.
     */
    void poke();

    /**
     * Serialize this component's evolving state. The obligation is
     * exhaustive: a fresh instance built from the identical config,
     * restored from this stream, must continue the run with every
     * simulated observable byte-identical to an uninterrupted run
     * (tests/test_checkpoint_diff.cc). Config-derived state (slot
     * tables, pipeline solutions, geometry) is rebuilt by the
     * constructor and must not be serialized. Default: stateless.
     * An override forwards to the component's one io walk, which
     * lists each field once for both directions (util/serialize.hh).
     */
    virtual void
    saveState(Serializer &s) const
    {
        (void)s;
    }

    /** Restore state written by saveState() on an identically
     *  configured fresh instance. */
    virtual void
    restoreState(Deserializer &d)
    {
        (void)d;
    }

    /** Component instance name (for stats and diagnostics). */
    const std::string &name() const { return name_; }

  private:
    friend class Simulator;

    std::string name_;
    Simulator *sim_ = nullptr; ///< set by Simulator::add()
    size_t slot_ = 0;          ///< index in sim_'s tick order
};

/**
 * The global tick loop. Does not own the components; the harness does.
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component; ticked in registration order. A
     *  component belongs to at most one simulator, which must outlive
     *  every call that pokes it. */
    void add(Component *c);

    /** Current time in memory cycles. */
    Cycle now() const { return now_; }

    /** Advance the simulation by exactly n memory cycles. On return
     *  every component is caught up to now(). */
    void run(Cycle n);

    /**
     * Arm the livelock watchdog: `probe` must return the first cycle
     * after the latest progress of the watched components (e.g. one
     * past the last cycle that retired an instruction or issued a
     * DRAM command), never more than now(). If no progress lands for
     * `window` cycles the run is fatally terminated with a diagnostic
     * naming the stall interval — a wedged scheduler otherwise spins
     * silently to the cycle limit. The probe is asked only when the
     * deadline `lastProgress + window` is reached, with every
     * component caught up. window = 0 disarms.
     */
    void setWatchdog(Cycle window, std::function<Cycle()> probe);

    /**
     * Enable/disable the idle-skip fast path (default on). Forced-
     * naive mode exists for the differential tests, which require the
     * two modes byte-identical in every simulated observable.
     */
    void setFastForward(bool on) { fastForward_ = on; }
    bool fastForwardEnabled() const { return fastForward_; }

    /** Cycles actually ticked (component loops executed). */
    uint64_t cyclesExecuted() const { return cyclesExecuted_; }
    /** Cycles skipped by fast-forward jumps. */
    uint64_t cyclesSkipped() const { return cyclesSkipped_; }
    /** Number of fast-forward jumps taken. */
    uint64_t fastForwardJumps() const { return jumps_; }

    /**
     * Serialize the kernel clock plus every registered component (in
     * registration order, each under a section named after it).
     * Watchdog config and the fast-forward flag are not serialized;
     * the harness re-arms them before restoreState(). The watchdog's
     * last progress is saved as max(books, probe()), the same value
     * in both modes and however often the run was chopped.
     */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    friend class Component;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    /** One registered component and the kernel's books on it. */
    struct Slot
    {
        Component *c = nullptr;
        Cycle wake = 0;     ///< cached nextWakeCycle() answer
        Cycle caughtUp = 0; ///< first cycle not yet accounted
        bool poked = false; ///< poked this cycle, hint not requeried
    };

    static constexpr size_t kNotTicking = SIZE_MAX;

    /** Watchdog check, a no-op before the deadline; at it, the probe
     *  either moves the deadline or the run dies. */
    void checkWatchdog();

    /** Account slot s's cycles up to `to` with one fastForward(). */
    static void catchUp(Slot &s, Cycle to);

    /** Component::poke() on slot i. */
    void poke(size_t i);

    /**
     * One executed cycle in fast-forward mode: tick the components
     * that are due or were poked with a live hint, requery the hints
     * of every ticked or poked component, and return the earliest
     * cached hint clamped into [now + 1, end].
     */
    Cycle tickDue(Cycle end);

    /**
     * Jump now_ forward to `wake` if the watchdog deadline allows,
     * and re-check the watchdog at the landing cycle (so a stalled
     * run dies at the identical cycle in both modes). Calls no
     * component: sleepers are caught up when they next run.
     */
    void jumpTo(Cycle wake);

    /** Registration order; derived books reset on every run() entry. */
    std::vector<Slot> slots_;
    /** Slots poked this cycle, in poke order (may repeat). */
    std::vector<size_t> poked_;
    /** Slot whose tick() is running (the last one ticked, between
     *  ticks of a tick phase), or kNotTicking. */
    size_t ticking_ = kNotTicking;
    Cycle now_ = 0;

    bool fastForward_ = true;
    uint64_t cyclesExecuted_ = 0;
    uint64_t cyclesSkipped_ = 0;
    uint64_t jumps_ = 0;

    Cycle watchdogWindow_ = 0; ///< 0 = disarmed
    std::function<Cycle()> watchdogProbe_;
    /** First cycle after the latest progress seen at a deadline, or
     *  the cycle the watchdog was armed at. */
    Cycle watchdogLastProgress_ = 0;
};

inline void
Component::poke()
{
    if (sim_)
        sim_->poke(slot_);
}

} // namespace memsec

#endif // MEMSEC_SIM_SIMULATOR_HH
