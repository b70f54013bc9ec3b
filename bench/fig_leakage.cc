/**
 * @file
 * Empirical leakage meter: mount the covert queueing channel against
 * every scheduler x partitioning point and report what an attacker
 * actually extracts.
 *
 * Core 0 runs the "probe" receiver (audited: its per-request
 * latencies become the observation stream); cores 1-7 run "modsender"
 * copies whose memory intensity is keyed on an encoded symbol frame
 * (pilot preamble + secret payload, leakage/codec.hh). The attacker
 * is the trained near-capacity decoder of leakage/decoder.hh:
 * adaptive symbol timing, pilot-selected guard band, and a
 * multi-feature (throughput + latency) maximum-likelihood decoder
 * with soft-decision voting. For each point we report the legacy
 * blind meter alongside the trained attacker's LLR mutual
 * information, ML bit-error rate, and *attacker strength* — the
 * measured per-window information as a fraction of the closed-form
 * Gong–Kiyavash bound.
 *
 * Expected outcome, and the two-sided exit-code gate:
 *  - FR-FCFS (any partitioning) must be decoded at >= 80% of the
 *    closed-form bound — the meter is strong enough that a surviving
 *    gap of 20% is attacker suboptimality, not meter weakness;
 *  - Fixed Service, reordered FS, and Temporal Partitioning must be
 *    *proved* closed (noninterference certificate, bound exactly 0)
 *    and *measured* closed: shuffle-floor MI from both meters, the
 *    trained model refusing to decode (pilot d' under the usability
 *    floor), and voted BER at a coin flip.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/leakage_bounds.hh"
#include "analysis/noninterference_certifier.hh"
#include "bench_common.hh"
#include "leakage/channel.hh"

using namespace memsec;
using namespace memsec::bench;

namespace {

struct Point
{
    std::string label;     ///< row label, "sched/partition"
    std::string scheme;    ///< harness scheme name
    std::string partition; ///< map.partition override ("" = scheme's)
    bool expectLeak = false; ///< gate: channel must be open / closed
    /** Attacker-tuned symbol period: partitioned channels are slower
     *  (less contention per window), so the sender lengthens the
     *  symbol to keep per-window separation decodable. The bound
     *  scales with the same window, so the strength ratio is fair. */
    uint64_t window = 1500;
};

/**
 * The static side of each point: the certifier configuration of the
 * design point the run measures (scheduler, FS options, TP turn and
 * map partition), read from the run's config by the harness's own
 * readers; its verdict fixes the closed-form bound the measurement
 * must respect. Certification sweeps the full co-runner lattice at 4
 * domains (2^(n-1) grows fast and the proof argument is domain-count
 * independent); the bound itself is evaluated at this figure's
 * empirical shape (8 domains, capacity-16 queues, per-point window).
 */
analysis::CertifierConfig
certConfigFor(const Config &run)
{
    const sched::SchedSpec spec = harness::schedSpec(run);
    analysis::CertifierConfig cfg;
    cfg.scheme = spec.kind;
    cfg.partition = harness::partitionOf(run);
    cfg.fs = spec.fs;
    cfg.tpTurnLength = spec.tp.turnLength;
    // FR-FCFS diverges within a few frames.
    if (cfg.scheme == analysis::CertScheme::FrFcfs)
        cfg.horizonFrames = 8;
    return cfg;
}

Config
pointConfig(const Point &pt)
{
    Config c = baseConfig(8);
    c.merge(harness::schemeConfig(pt.scheme));
    if (!pt.partition.empty())
        c.set("map.partition", pt.partition);
    // Receiver on the audited core 0, senders everywhere else.
    std::string wl = "probe";
    for (int i = 0; i < 7; ++i)
        wl += ",modsender";
    c.set("workload", wl);
    c.set("audit.core", 0);
    c.set("sim.warmup", 0);
    // The >=80%-of-bound gate needs enough windows for the pilot-
    // trained model and the shuffle floor to settle, so this figure
    // keeps a measurement floor even under MEMSEC_QUICK (full run is
    // a few seconds; the quick default would leave ~40 pilots).
    c.set("sim.measure",
          std::max<uint64_t>(480000, 4 * c.getUint("sim.measure")));
    // The covert-channel protocol (docs/CONFIG.md, leak.*); keys left
    // out take their declared defaults. The secret seed is chosen
    // *balanced* (16 ones in 32 bits): source entropy is exactly
    // 1 bit/window, so measured MI is comparable to the closed-form
    // bound and a refused decode sits at BER 0.5 exactly.
    c.set("leak.window", pt.window);
    c.set("leak.secret_seed", 0xC0FFF2);
    c.set("leak.secret_bits", 32);
    c.set("leak.skip_windows", 2);
    // The attacker's code: 9 alternating pilots per frame, payload
    // uncoded — soft voting across cyclic frame repetitions is the
    // repetition code. 9 + 32 makes the frame 41 windows, *prime*:
    // any deterministic per-window periodicity in a scheduler (FS
    // frame turns, TP turn schedule, refresh) cycles through every
    // frame phase instead of locking onto the alternating pilot
    // classes, so a noninterfering scheme cannot fake pilot
    // separation by aliasing. (An even frame length lets window
    // parity align with the pilots and produced exactly that
    // artifact.)
    c.set("leak.code.preamble", 9);
    return c;
}

/** FNV-1a over the digest text: a short printable fingerprint. */
std::string
shortHash(const std::string &text)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char ch : text)
        h = (h ^ ch) * 0x100000001B3ull;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const BenchOptions opts = BenchOptions::parse(argc, argv);

    const std::vector<Point> points = {
        {"frfcfs/none", "baseline", "", true, 2000},
        {"frfcfs/bank", "baseline", "bank", true, 3000},
        {"frfcfs/rank", "baseline", "rank", true, 1500},
        {"fs/rank", "fs_rp", "", false, 1500},
        {"fs/bank", "fs_bp", "", false, 1500},
        {"fs/none", "fs_np", "", false, 1500},
        {"fs_reord/bank", "fs_reordered_bp", "", false, 1500},
        {"tp/bank", "tp_bp", "", false, 1500},
        {"tp/none", "tp_np", "", false, 1500},
    };

    std::cerr << "fig_leakage: covert-channel capacity/BER sweep ("
              << points.size() << " runs, --jobs " << opts.jobs
              << ")\n";
    harness::Campaign campaign;
    for (const auto &pt : points)
        campaign.add(pt.label, pointConfig(pt));
    const auto &summary = campaign.run(opts.campaignOptions());
    std::cerr << summary.toString() << "\n";

    if (!opts.csvOnly) {
        std::cout << "\n== Empirical leakage: covert-channel capacity "
                     "and decode BER ==\n";
        std::cout << "probe receiver on core 0, 7 modulated senders; "
                     "MIcorr = legacy meter (bits/window),\nllrMI = "
                     "trained-decoder LLR MI, mlBER = soft-voted "
                     "secret BER, strength = attacker\nbits/window / "
                     "closed-form bound.\n";
    }

    Table t;
    t.header({"point", "windows", "MIcorr", "llrMI", "rawBER", "mlBER",
              "bit/s", "bound", "strength", "verdict", "digest"});
    bool gateOk = true;
    std::vector<std::string> gateFailures;
    for (size_t i = 0; i < points.size(); ++i) {
        const auto &pt = points[i];
        const auto &res = campaign.result(i);
        const auto params = leakage::ChannelParams::fromConfig(
            campaign.outcome(i).config);
        const auto rep =
            leakage::analyzeLeakage(res.timelines.at(0), params);

        // Static verdict first: certify the point's scheduler, then
        // evaluate the closed-form bound at this figure's empirical
        // channel shape. Measurement must sit under the bound, and a
        // certificate must collapse the bound to exactly zero.
        const Config &cfg = campaign.outcome(i).config;
        const analysis::NoninterferenceCertifier cert(certConfigFor(cfg));
        const bool certified = cert.certify().certified;
        analysis::QueueModel qm;
        qm.numDomains = cfg.getUint("cores");
        qm.queueCapacity = cfg.getUint("mc.queue_capacity");
        qm.windowCycles = params.windowCycles;
        const analysis::LeakageBound bound =
            analysis::boundFor(qm, certified);
        const double strength =
            bound.bitsPerWindow > 0.0
                ? rep.attackerBitsPerWindow / bound.bitsPerWindow
                : 0.0;

        // The channel is open when the trained attacker both finds a
        // usable model and decodes the secret at low error; closed
        // when both meters sit at the noise floor, the model is
        // refused, and the voted decode is a coin flip.
        const bool open = rep.modelUsable && rep.mlVotedBer < 0.1 &&
                          rep.mi.pluginBits > rep.mi.shuffleMaxBits;
        const bool closed = rep.mi.correctedBits < 0.05 &&
                            rep.llrMi.correctedBits < 0.05 &&
                            !rep.modelUsable &&
                            rep.mlVotedBer > 0.35 &&
                            rep.mlVotedBer < 0.65 &&
                            rep.rawBer > 0.35 && rep.rawBer < 0.65;
        const char *verdict = open ? "OPEN" : closed ? "closed" : "?";
        if (pt.expectLeak != open || (!pt.expectLeak && !closed)) {
            gateOk = false;
            gateFailures.push_back(pt.label + ": expected " +
                                   (pt.expectLeak ? "OPEN" : "closed") +
                                   ", measured " + verdict + " (" +
                                   rep.toString() + ")");
        }
        if (pt.expectLeak) {
            // Bound soundness: the measured channel may never exceed
            // what the closed form admits.
            if (certified || bound.bitsPerWindow <= 0.0 ||
                rep.attackerBitsPerWindow > bound.bitsPerWindow ||
                rep.attackerBitsPerSecond > bound.bitsPerSecond) {
                gateOk = false;
                gateFailures.push_back(
                    pt.label + ": measured " +
                    Table::num(rep.attackerBitsPerWindow, 3) +
                    " b/win, " +
                    Table::num(rep.attackerBitsPerSecond, 0) +
                    " b/s exceeds closed-form bound " +
                    Table::num(bound.bitsPerWindow, 3) + " b/win, " +
                    Table::num(bound.bitsPerSecond, 0) + " b/s");
            }
            // Attacker strength: the meter must be near-capacity, or
            // the security claim "FS/TP flatline under our attacker"
            // is an argument from weakness.
            if (strength < 0.80) {
                gateOk = false;
                gateFailures.push_back(
                    pt.label + ": attacker strength " +
                    Table::num(strength, 3) +
                    " below 0.80 of the closed-form bound (" +
                    rep.toString() + ")");
            }
        } else if (!certified || bound.bitsPerWindow != 0.0) {
            // Secure points must be *proved* closed, not just
            // measured closed: certificate present, bound exactly 0.
            gateOk = false;
            gateFailures.push_back(
                pt.label +
                ": no noninterference certificate (bound " +
                Table::num(bound.bitsPerWindow, 3) +
                " b/win instead of 0)");
        }
        t.row({pt.label, std::to_string(rep.windows),
               Table::num(rep.mi.correctedBits, 3),
               Table::num(rep.llrMi.correctedBits, 3),
               Table::num(rep.rawBer, 3), Table::num(rep.mlVotedBer, 3),
               Table::num(rep.attackerBitsPerSecond, 0),
               Table::num(bound.bitsPerSecond, 0),
               Table::num(strength, 3), verdict,
               shortHash(leakageDigest(rep) +
                         harness::resultDigest(res))});
    }

    if (opts.csvOnly) {
        t.printCsv(std::cout);
    } else {
        t.print(std::cout);
        std::cout << "\ncsv:\n";
        t.printCsv(std::cout);
    }
    if (!gateOk) {
        std::cerr << "\nfig_leakage GATE FAILED:\n";
        for (const auto &f : gateFailures)
            std::cerr << "  " << f << "\n";
    }
    return gateOk ? 0 : 1;
}
