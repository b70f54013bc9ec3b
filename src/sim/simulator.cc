#include "sim/simulator.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec {

template <class Self, class Ar>
void
Simulator::io(Self &self, Ar &ar)
{
    ar.section("simulator/v2");
    ar.io(self.now_, self.cyclesExecuted_, self.cyclesSkipped_, self.jumps_);
    // The books lag the probe by up to a window, by a different amount
    // in each mode; their max with the probe does not.
    if constexpr (Ar::loading) {
        ar.io(self.watchdogLastProgress_);
    } else {
        ar.io(self.watchdogWindow_ > 0
                  ? std::max(self.watchdogLastProgress_,
                             self.watchdogProbe_())
                  : self.watchdogLastProgress_);
    }
    ar.sized(self.slots_, "component count mismatch", [&](auto &slot) {
        ar.section(slot.c->name());
        ar.io(*slot.c);
    });
}

void
Simulator::saveState(Serializer &s) const
{
    io(*this, s);
}

void
Simulator::restoreState(Deserializer &d)
{
    io(*this, d);
}

void
Simulator::add(Component *c)
{
    panic_if(c == nullptr, "Simulator::add(nullptr)");
    panic_if(c->sim_ != nullptr, "{} is already registered",
             c->name());
    c->sim_ = this;
    c->slot_ = slots_.size();
    slots_.push_back(Slot{c});
}

void
Simulator::setWatchdog(Cycle window, std::function<Cycle()> probe)
{
    panic_if(window > 0 && !probe, "watchdog armed without a probe");
    watchdogWindow_ = window;
    watchdogProbe_ = std::move(probe);
    watchdogLastProgress_ = now_;
}

void
Simulator::checkWatchdog()
{
    if (watchdogWindow_ == 0 ||
        now_ < watchdogLastProgress_ + watchdogWindow_)
        return;
    // A sleeper's progress is booked when it is caught up.
    if (fastForward_) {
        for (Slot &s : slots_)
            catchUp(s, now_);
    }
    watchdogLastProgress_ = std::max(watchdogLastProgress_, watchdogProbe_());
    if (now_ - watchdogLastProgress_ >= watchdogWindow_) {
        fatal("livelock: no progress for {} cycles (cycle {}..{})",
              now_ - watchdogLastProgress_, watchdogLastProgress_, now_);
    }
}

void
Simulator::catchUp(Slot &s, Cycle to)
{
    if (s.caughtUp < to) {
        s.c->fastForward(s.caughtUp, to);
        s.caughtUp = to;
    }
}

void
Simulator::poke(size_t i)
{
    if (ticking_ == kNotTicking || i == ticking_)
        return;
    // Account the target's cycles before the mutation lands. Its turn
    // this cycle is either still ahead (it is caught up to now_ and
    // revalidates at its turn) or already taken as a no-op (caught up
    // through now_).
    Slot &s = slots_[i];
    catchUp(s, i > ticking_ ? now_ : now_ + 1);
    if (!s.poked) {
        s.poked = true;
        poked_.push_back(i);
    }
}

Cycle
Simulator::tickDue(Cycle end)
{
    // A component whose cached wake lies in the future declared this
    // cycle a no-op, and nothing has touched it since: leave it alone.
    // A poke from an earlier-ordered component this very cycle may
    // have invalidated the hint (a core enqueuing into an idle FR-FCFS
    // controller, whose hint depends on queue emptiness), so a poked
    // component re-asks with the previous cycle as the anchor: "is
    // tick(now_) still a no-op given everything that already happened
    // this cycle?".
    for (size_t i = 0; i < slots_.size(); ++i) {
        Slot &s = slots_[i];
        if (s.wake > now_ &&
            !(s.poked && s.c->nextWakeCycle(now_ - 1) <= now_))
            continue;
        ticking_ = i;
        catchUp(s, now_);
        s.c->tick(now_);
        s.caughtUp = now_ + 1;
        s.poked = false;
        s.wake = std::max(s.c->nextWakeCycle(now_), now_ + 1);
    }
    ticking_ = kNotTicking;
    // Components poked after their turn, or poked before it without
    // becoming due, requery once the whole cycle has happened to them.
    for (size_t i : poked_) {
        Slot &s = slots_[i];
        if (!s.poked)
            continue;
        s.poked = false;
        catchUp(s, now_ + 1);
        s.wake = std::max(s.c->nextWakeCycle(now_), now_ + 1);
    }
    poked_.clear();
    Cycle wake = end;
    for (const Slot &s : slots_)
        wake = std::min(wake, s.wake);
    return wake;
}

void
Simulator::jumpTo(Cycle wake)
{
    // The watchdog must fire at the identical cycle in both modes: a
    // jump never overshoots the stall deadline, and the landing cycle
    // is re-checked (component state is frozen across the span, so
    // the probe cannot have advanced).
    if (watchdogWindow_ > 0)
        wake = std::min(wake, watchdogLastProgress_ + watchdogWindow_);
    if (wake <= now_)
        return;
    cyclesSkipped_ += wake - now_;
    ++jumps_;
    now_ = wake;
    checkWatchdog();
}

void
Simulator::run(Cycle n)
{
    const Cycle end = now_ + n;
    if (!fastForward_) {
        // Naive mode: the digest anchor. Every component ticks every
        // cycle; no hints are consulted at all.
        while (now_ < end) {
            for (Slot &s : slots_)
                s.c->tick(now_);
            ++now_;
            ++cyclesExecuted_;
            checkWatchdog();
        }
        return;
    }
    // Harness code may mutate components between run() calls (fault
    // injection, measurement boundaries); start each entry with every
    // component due, which is always safe.
    for (Slot &s : slots_) {
        s.wake = now_;
        s.caughtUp = now_;
        s.poked = false;
    }
    while (now_ < end) {
        const Cycle wake = tickDue(end);
        ++now_;
        ++cyclesExecuted_;
        checkWatchdog();
        if (wake > now_)
            jumpTo(wake);
    }
    // Whatever reads components between runs (measurement boundaries,
    // stats, checkpoints) sees them accounted through now_.
    for (Slot &s : slots_)
        catchUp(s, now_);
}

} // namespace memsec
