/**
 * @file
 * Covert-queueing-channel symbol codec: the coding strategy of
 * "A Covert Queueing Channel in FCFS Schedulers" ported onto the
 * memory controller's on-off keyed sender.
 *
 * The channel alphabet is the queue state the receiver can observe
 * within one symbol window: symbol 1 = sender saturates the shared
 * queues (long busy period, receiver displaced), symbol 0 = sender
 * idles (short busy period). The encoder frames the secret into a
 * cyclic *symbol frame* transmitted window after window:
 *
 *     [ preamble pilots | payload symbols ]
 *
 *  - The **preamble** is a fixed alternating 1 0 1 0 ... pilot
 *    pattern. Both endpoints know it, so the receiver can (a) train
 *    its per-symbol observation model on windows of known polarity
 *    without ever seeing the secret (decoder.hh), and (b) recover
 *    symbol timing by matched-filtering candidate window periods
 *    against it — the busy-period framing of the FCFS paper: pilot
 *    busy periods delimit each frame like an idle period delimits a
 *    busy one.
 *  - The **payload** carries the secret at a configurable rate:
 *    repetition coding (`leak.code.repeat` consecutive windows per
 *    bit, soft-combined by the decoder) and an optional Manchester
 *    scheme (`leak.code.scheme=manchester`, each bit sent as the
 *    pair (b, 1-b)) that guarantees one queue-state transition per
 *    bit and removes the on-off keying's DC component.
 *
 * A frame with no preamble, repeat 1, and the on-off scheme encodes
 * the plain secret — exactly the pre-codec sender, so every legacy
 * configuration transmits byte-identical traffic.
 *
 * Like leakage/secret.hh, this header is shared by the sender
 * (harness/experiment.cc feeds the encoded frame into the modulated
 * trace generator) and the analysis side (leakage/channel.cc), so
 * the two cannot disagree about the code.
 */

#ifndef MEMSEC_LEAKAGE_CODEC_HH
#define MEMSEC_LEAKAGE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace memsec::leakage {

/** The `leak.code.*` half of the covert-channel protocol. */
struct CodeParams
{
    enum class Scheme
    {
        OnOff,     ///< one window per symbol, symbol = payload bit
        Manchester ///< two windows per bit: (b, 1-b)
    };

    Scheme scheme = Scheme::OnOff;
    /** Alternating pilot symbols leading each frame (0 = no pilots,
     *  which also disables model training and timing recovery). */
    size_t preambleSymbols = 0;
    /** Repetition factor: consecutive windows per payload bit
     *  (per Manchester half-bit when the scheme is Manchester). */
    unsigned repeat = 1;

    /** Read every leak.code.* key (with these defaults). */
    static CodeParams fromConfig(const Config &cfg);

    /** Payload bits per transmitted window, preamble overhead
     *  included, for a secret of `payloadBits` bits. */
    double codeRate(size_t payloadBits) const;
};

/** The leak.code.scheme values. */
inline constexpr ConfigChoice<CodeParams::Scheme> kCodeSchemes[] = {
    {"onoff", CodeParams::Scheme::OnOff},
    {"manchester", CodeParams::Scheme::Manchester}};

const char *schemeName(CodeParams::Scheme s);

/** What one frame window carries. */
struct SymbolRole
{
    bool pilot = false;
    /** Payload bit index the window carries (valid when !pilot). */
    size_t bitIndex = 0;
    /** True for the inverted (second) Manchester half-bit: the
     *  transmitted symbol is the complement of the payload bit. */
    bool inverted = false;
};

/**
 * One encoded frame, transmitted cyclically: window w carries
 * symbols[w % length()]. Cyclic repetition is the outer repetition
 * code — the decoder soft-combines every occurrence of a payload
 * bit across frames and within a frame's repeat group.
 */
struct SymbolFrame
{
    CodeParams params;
    size_t payloadBits = 0;
    std::vector<uint8_t> symbols;

    size_t length() const { return symbols.size(); }
    size_t pilotsPerFrame() const { return params.preambleSymbols; }

    /** Transmitted symbol for absolute window index `window`. */
    uint8_t symbolAt(size_t window) const
    {
        return symbols[window % symbols.size()];
    }

    /** Role of absolute window index `window` within its frame. */
    SymbolRole roleOf(size_t window) const;
};

/**
 * Encode `secret` into one frame under `params`. The preamble is
 * the alternating pilot pattern 1 0 1 0 ...; payload bits follow in
 * order, each expanded per the scheme and repetition factor.
 */
SymbolFrame encodeFrame(const std::vector<uint8_t> &secret,
                        const CodeParams &params);

/**
 * Hard-decision round-trip decode of per-window symbol decisions
 * back into payload bits by per-bit majority over every window that
 * carries the bit (Manchester halves de-inverted first). Windows
 * are consumed cyclically starting at absolute window `firstWindow`;
 * `decisions[i]` is the receiver's symbol decision for window
 * `firstWindow + i`. Bits with no carrying window keep value 0 and
 * are reported absent. Ties decode to 0.
 */
struct CodecDecodeResult
{
    std::vector<uint8_t> bits;     ///< decoded payload bits
    std::vector<uint8_t> observed; ///< 1 if any window carried bit i
};
CodecDecodeResult decodeHard(const std::vector<uint8_t> &decisions,
                             const SymbolFrame &frame,
                             size_t firstWindow = 0);

} // namespace memsec::leakage

#endif // MEMSEC_LEAKAGE_CODEC_HH
