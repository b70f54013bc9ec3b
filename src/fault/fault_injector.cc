#include "fault/fault_injector.hh"

#include <sstream>

#include "sim/config.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::fault {

namespace {

struct KindName
{
    FaultKind kind;
    const char *name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::None, "none"},
    {FaultKind::CmdDrop, "cmd-drop"},
    {FaultKind::CmdDelay, "cmd-delay"},
    {FaultKind::CmdDuplicate, "cmd-duplicate"},
    {FaultKind::CmdRetarget, "cmd-retarget"},
    {FaultKind::CmdSpurious, "cmd-spurious"},
    {FaultKind::TimingDrift, "timing-drift"},
    {FaultKind::RefreshSuppress, "refresh-suppress"},
    {FaultKind::RefreshStorm, "refresh-storm"},
    {FaultKind::QueueOverflow, "queue-overflow"},
    {FaultKind::SlotSkew, "slot-skew"},
    {FaultKind::CrossCoupling, "cross-coupling"},
    {FaultKind::TraceCorrupt, "trace-corrupt"},
    {FaultKind::SnapshotTruncate, "snapshot-truncate"},
    {FaultKind::SnapshotBitflip, "snapshot-bitflip"},
    {FaultKind::SnapshotVersion, "snapshot-version"},
    {FaultKind::JournalStale, "journal-stale"},
};

} // namespace

using enum ConfigType;

constexpr ConfigKey kFaultKeys[] = {
    {"fault.kind", String, "none", choiceNames<kKindNames>},
    {"fault.seed", Uint, "1"},
    {"fault.rate", Double, "1.0", nullptr, 0, 1},
    {"fault.magnitude", Uint, "1"},
    {"fault.param", String, ""},
    {"fault.scale", Double, "2.0"},
    {"fault.window", String},
};
const std::span<const ConfigKey> faultConfigKeys = kFaultKeys;

const char *
faultKindName(FaultKind kind)
{
    for (const auto &kn : kKindNames) {
        if (kn.kind == kind)
            return kn.name;
    }
    panic("unnamed FaultKind {}", static_cast<int>(kind));
}

FaultKind
faultKindByName(const std::string &name)
{
    for (const auto &kn : kKindNames) {
        if (name == kn.name)
            return kn.kind;
    }
    fatal("unknown fault.kind '{}'", name);
}

FaultSpec
FaultSpec::fromConfig(const Config &config)
{
    const Config cfg = withDefaults(config, kFaultKeys);
    FaultSpec spec;
    spec.kind = faultKindByName(cfg.getString("fault.kind"));
    spec.seed = cfg.getUint("fault.seed");
    spec.rate = cfg.getDouble("fault.rate");
    spec.magnitude = cfg.getUint("fault.magnitude");
    spec.param = cfg.getString("fault.param");
    spec.scale = cfg.getDouble("fault.scale");
    fatal_if(spec.rate < 0.0 || spec.rate > 1.0,
             "fault.rate {} outside [0, 1]", spec.rate);

    const std::string window = cfg.getString("fault.window");
    if (!window.empty()) {
        const auto colon = window.find(':');
        fatal_if(colon == std::string::npos,
                 "fault.window '{}' is not 'lo:hi'", window);
        // Strict parse: stoull alone would accept "10:5:7" (trailing
        // garbage) and report the wrong problem.
        auto cycle = [&window](const std::string &s) {
            size_t used = 0;
            uint64_t v = 0;
            try {
                v = std::stoull(s, &used);
            } catch (const std::exception &) {
                used = std::string::npos;
            }
            fatal_if(used != s.size(), "fault.window '{}' is not 'lo:hi'",
                     window);
            return v;
        };
        spec.windowLo = cycle(window.substr(0, colon));
        const std::string hi = window.substr(colon + 1);
        spec.windowHi = hi.empty() ? kNoCycle : cycle(hi);
        fatal_if(spec.windowHi <= spec.windowLo,
                 "fault.window '{}' is empty", window);
    }
    return spec;
}

FaultInjector::FaultInjector(const FaultSpec &spec)
    : spec_(spec), rng_(spec.seed)
{
}

bool
FaultInjector::fires(Cycle t)
{
    if (!inWindow(t))
        return false;
    // One draw per in-window opportunity keeps the stream reproducible
    // regardless of how many opportunities fall outside the window.
    return rng_.chance(spec_.rate);
}

bool
FaultInjector::targetsCommand(const dram::Command &cmd) const
{
    std::string target = spec_.param;
    if (target.empty() || target == "pde" || target == "pdx" ||
        target == "pde-pdx") {
        // Kind-specific default victim: the command type whose loss /
        // shift most directly provokes the rule class under test.
        switch (spec_.kind) {
          case FaultKind::CmdDrop:
          case FaultKind::CmdDelay:
          case FaultKind::CmdSpurious:
            target = "act";
            break;
          case FaultKind::CmdDuplicate:
          case FaultKind::CmdRetarget:
            target = "cas";
            break;
          default:
            target = "any";
            break;
        }
    }
    if (target == "any")
        return true;
    if (target == "act")
        return cmd.type == dram::CmdType::Act;
    if (target == "cas")
        return dram::isColumn(cmd.type);
    if (target == "pre")
        return cmd.type == dram::CmdType::Pre;
    if (target == "ref")
        return cmd.type == dram::CmdType::Ref;
    fatal("unknown fault.param '{}' for {}", target,
          faultKindName(spec_.kind));
}

std::vector<std::pair<dram::Command, Cycle>>
FaultInjector::auditView(const dram::Command &cmd, Cycle t)
{
    std::vector<std::pair<dram::Command, Cycle>> view;
    view.emplace_back(cmd, t);

    switch (spec_.kind) {
      case FaultKind::CmdDrop:
        if (targetsCommand(cmd) && fires(t)) {
            ++injected_;
            view.clear();
        }
        break;

      case FaultKind::CmdDelay:
        if (targetsCommand(cmd) && fires(t)) {
            ++injected_;
            view.back().second = t + spec_.magnitude;
        }
        break;

      case FaultKind::CmdDuplicate:
        if (targetsCommand(cmd) && fires(t)) {
            ++injected_;
            view.emplace_back(cmd, t + spec_.magnitude);
        }
        break;

      case FaultKind::CmdRetarget:
        if (targetsCommand(cmd) && fires(t)) {
            ++injected_;
            view.back().first.bank ^= 1u;
        }
        break;

      case FaultKind::CmdSpurious:
        if (targetsCommand(cmd) && fires(t)) {
            ++injected_;
            dram::Command ghost;
            ghost.rank = cmd.rank;
            if (spec_.param == "pdx") {
                ghost.type = dram::CmdType::PdExit;
                view.emplace_back(ghost, t + 1);
            } else if (spec_.param == "pde-pdx") {
                ghost.type = dram::CmdType::PdEnter;
                view.emplace_back(ghost, t + 1);
                ghost.type = dram::CmdType::PdExit;
                view.emplace_back(ghost, t + 2);
            } else {
                ghost.type = dram::CmdType::PdEnter;
                view.emplace_back(ghost, t + 1);
            }
        }
        break;

      case FaultKind::RefreshStorm:
        if (cmd.type == dram::CmdType::Ref && fires(t)) {
            ++injected_;
            view.emplace_back(cmd, t + spec_.magnitude);
        }
        break;

      case FaultKind::RefreshSuppress:
        if (cmd.type == dram::CmdType::Ref && fires(t)) {
            ++injected_;
            view.clear();
        }
        break;

      default:
        break;
    }
    return view;
}

dram::TimingParams
FaultInjector::driftTimings(const dram::TimingParams &tp)
{
    dram::TimingParams out = tp;
    if (spec_.kind == FaultKind::TimingDrift)
        ++injected_; // one fault: the whole device drifted
    const std::string param = spec_.param.empty() ? "faw" : spec_.param;
    auto drift = [&](unsigned v) {
        return static_cast<unsigned>(static_cast<double>(v) * spec_.scale);
    };
    if (param == "faw")
        out.faw = drift(tp.faw);
    else if (param == "rrd")
        out.rrd = drift(tp.rrd);
    else if (param == "burst")
        out.burst = drift(tp.burst);
    else if (param == "rp")
        out.rp = drift(tp.rp);
    else if (param == "rc")
        out.rc = drift(tp.rc);
    else if (param == "rcd")
        out.rcd = drift(tp.rcd);
    else
        fatal("unknown fault.param '{}' for timing-drift", param);
    return out;
}

Cycle
FaultInjector::slotSkew(Cycle t)
{
    if (spec_.kind != FaultKind::SlotSkew || !fires(t))
        return 0;
    ++injected_;
    return spec_.magnitude;
}

Cycle
FaultInjector::couplingSkew(Cycle t, uint64_t foreignBacklog)
{
    if (spec_.kind != FaultKind::CrossCoupling || foreignBacklog == 0 ||
        !fires(t))
        return 0;
    ++injected_;
    return spec_.magnitude;
}

bool
FaultInjector::overflowFires(Cycle t)
{
    if (spec_.kind != FaultKind::QueueOverflow || !fires(t))
        return false;
    ++injected_;
    return true;
}

std::string
FaultInjector::corruptTraceText(const std::string &text)
{
    if (spec_.kind != FaultKind::TraceCorrupt)
        return text;

    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    Cycle lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const bool blank =
            line.find_first_not_of(" \t\r") == std::string::npos;
        const bool comment = !blank &&
            line[line.find_first_not_of(" \t\r")] == '#';
        if (!blank && !comment && fires(lineNo)) {
            ++injected_;
            switch (rng_.below(4)) {
              case 0: // truncate mid-record
                line = line.substr(0, line.size() / 2);
                break;
              case 1: // unparsable address
                line = "1 R zz";
                break;
              case 2: // invalid access kind
                line = "1 X 0x40";
                break;
              case 3: // garbage where the gap should be
                line = "@@ " + line;
                break;
            }
        }
        out << line << "\n";
    }
    return out.str();
}

void
FaultInjector::corruptSnapshotBytes(std::string &bytes)
{
    // Container layout (util/serialize.cc): 8-byte magic, u32 version
    // at offset 8, u64 fingerprint length at 12, fingerprint chars at
    // 20, then payload length / CRC / payload. The corruptions below
    // target the specific field whose guard they exercise.
    constexpr size_t kVersionAt = 8;
    constexpr size_t kFingerprintAt = 20;
    const size_t minSize = kFingerprintAt + 1;
    if (bytes.size() < minSize)
        return; // too short to mutate meaningfully; already corrupt

    switch (spec_.kind) {
      case FaultKind::SnapshotTruncate:
        // Tear off the tail, as an interrupted non-atomic write would.
        ++injected_;
        bytes.resize(minSize + rng_.below(bytes.size() - minSize));
        break;

      case FaultKind::SnapshotBitflip: {
        // Flip one bit in the back half of the file: always payload
        // (the header is a fixed few dozen bytes), so the block CRC
        // must catch it.
        ++injected_;
        const size_t lo = bytes.size() / 2;
        const size_t at = lo + rng_.below(bytes.size() - lo);
        bytes[at] = static_cast<char>(
            bytes[at] ^ static_cast<char>(1u << rng_.below(8)));
        break;
      }

      case FaultKind::SnapshotVersion:
        // A snapshot from a future (or mangled) format revision.
        ++injected_;
        bytes[kVersionAt] = static_cast<char>(bytes[kVersionAt] + 1);
        break;

      case FaultKind::JournalStale:
        // The entry belongs to a different config: mutate a
        // fingerprint character (outside the payload CRC, so the
        // fingerprint check — not the CRC — must reject it).
        ++injected_;
        bytes[kFingerprintAt] =
            static_cast<char>(bytes[kFingerprintAt] ^ 0x01);
        break;

      default:
        break;
    }
}

template <class Self, class Ar>
void
FaultInjector::io(Self &self, Ar &ar)
{
    ar.section("fault");
    ar.io(self.rng_, self.injected_);
}

void
FaultInjector::saveState(Serializer &s) const
{
    io(*this, s);
}

void
FaultInjector::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::fault
