#include "leakage/codec.hh"

#include "leakage/channel.hh"
#include "sim/config.hh"
#include "util/logging.hh"

namespace memsec::leakage {

const char *
schemeName(CodeParams::Scheme s)
{
    for (const auto &entry : kCodeSchemes) {
        if (entry.value == s)
            return entry.name;
    }
    panic("unreachable code scheme");
}

CodeParams
CodeParams::fromConfig(const Config &config)
{
    const Config cfg = withDefaults(config, leakConfigKeys);
    CodeParams p;
    p.scheme = choiceValue(kCodeSchemes, "leak.code.scheme",
                           cfg.getString("leak.code.scheme"));
    p.preambleSymbols =
        static_cast<size_t>(cfg.getUint("leak.code.preamble"));
    p.repeat = static_cast<unsigned>(cfg.getUint("leak.code.repeat"));
    fatal_if(p.repeat == 0, "leak.code.repeat must be positive");
    return p;
}

double
CodeParams::codeRate(size_t payloadBits) const
{
    const unsigned perBit =
        repeat * (scheme == Scheme::Manchester ? 2u : 1u);
    const size_t len = preambleSymbols + payloadBits * perBit;
    return len == 0 ? 0.0
                    : static_cast<double>(payloadBits) /
                          static_cast<double>(len);
}

SymbolRole
SymbolFrame::roleOf(size_t window) const
{
    panic_if(symbols.empty(), "roleOf on an empty frame");
    const size_t pos = window % symbols.size();
    SymbolRole role;
    if (pos < params.preambleSymbols) {
        role.pilot = true;
        return role;
    }
    const size_t body = pos - params.preambleSymbols;
    const unsigned halves =
        params.scheme == CodeParams::Scheme::Manchester ? 2u : 1u;
    const size_t perBit = params.repeat * halves;
    role.bitIndex = body / perBit;
    // Within a bit's group the repeat copies of each Manchester half
    // are contiguous: b ... b, 1-b ... 1-b.
    role.inverted = (body % perBit) / params.repeat == 1;
    return role;
}

SymbolFrame
encodeFrame(const std::vector<uint8_t> &secret, const CodeParams &params)
{
    panic_if(secret.empty(), "cannot encode an empty secret");
    SymbolFrame f;
    f.params = params;
    f.payloadBits = secret.size();
    const unsigned halves =
        params.scheme == CodeParams::Scheme::Manchester ? 2u : 1u;
    f.symbols.reserve(params.preambleSymbols +
                      secret.size() * params.repeat * halves);
    // Alternating pilots, starting with the ON symbol so even a
    // single-pilot preamble exercises the loud queue state.
    for (size_t i = 0; i < params.preambleSymbols; ++i)
        f.symbols.push_back(i % 2 == 0 ? 1 : 0);
    for (const uint8_t bit : secret) {
        panic_if(bit > 1, "secret bits must be 0/1, got {}", bit);
        for (unsigned h = 0; h < halves; ++h) {
            const uint8_t sym = h == 0 ? bit : 1 - bit;
            for (unsigned r = 0; r < params.repeat; ++r)
                f.symbols.push_back(sym);
        }
    }
    return f;
}

CodecDecodeResult
decodeHard(const std::vector<uint8_t> &decisions,
           const SymbolFrame &frame, size_t firstWindow)
{
    CodecDecodeResult out;
    out.bits.assign(frame.payloadBits, 0);
    out.observed.assign(frame.payloadBits, 0);
    std::vector<int> votes(frame.payloadBits, 0);
    for (size_t i = 0; i < decisions.size(); ++i) {
        const SymbolRole role = frame.roleOf(firstWindow + i);
        if (role.pilot)
            continue;
        const uint8_t bit =
            role.inverted ? 1 - (decisions[i] & 1) : (decisions[i] & 1);
        votes[role.bitIndex] += bit ? 1 : -1;
        out.observed[role.bitIndex] = 1;
    }
    for (size_t b = 0; b < frame.payloadBits; ++b)
        out.bits[b] = votes[b] > 0 ? 1 : 0;
    return out;
}

} // namespace memsec::leakage
