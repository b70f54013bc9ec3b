#include "cpu/trace_file.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cpu {

namespace {

constexpr char kTraceMagic[9] = "MSTRACE1";
constexpr uint32_t kTraceVersion = 1;
constexpr uint32_t kRecordsPerBlock = 4096;
constexpr size_t kRecordBytes = 16;
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8;

} // namespace

std::string
TraceParseError::toString() const
{
    if (line > 0) {
        return "trace line " + std::to_string(line) + " (byte " +
               std::to_string(byteOffset) + "): " + message;
    }
    return "trace byte " + std::to_string(byteOffset) + ": " + message;
}

bool
tryParseTrace(const std::string &text, std::vector<TraceRecord> &out,
              TraceParseError &err)
{
    auto failAt = [&](int lineno, uint64_t offset,
                      const std::string &message) {
        err.line = lineno;
        err.byteOffset = offset;
        err.message = message;
        return false;
    };

    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    uint64_t offset = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const uint64_t lineStart = offset;
        offset += line.size() + 1; // +1 for the consumed '\n'
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        // Only genuinely blank lines may be skipped; a line with
        // content that fails to parse is a corrupt record, not noise.
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::istringstream ls(line);
        uint64_t gap;
        std::string kind;
        std::string addr;
        if (!(ls >> gap) || !(ls >> kind >> addr))
            return failAt(lineno, lineStart,
                          "expected '<gap> R|W <hex-addr>', got '" +
                              line + "'");
        if (gap > std::numeric_limits<uint32_t>::max())
            return failAt(lineno, lineStart,
                          "gap " + std::to_string(gap) + " out of range");
        if (kind != "R" && kind != "W")
            return failAt(lineno, lineStart,
                          "kind must be R or W, got '" + kind + "'");
        TraceRecord rec;
        rec.gap = static_cast<uint32_t>(gap);
        rec.isStore = kind == "W";
        char *end = nullptr;
        rec.addr = std::strtoull(addr.c_str(), &end, 16);
        if (end == addr.c_str() || *end != '\0')
            return failAt(lineno, lineStart, "bad address '" + addr + "'");
        out.push_back(rec);
    }
    return true;
}

std::vector<TraceRecord>
parseTrace(const std::string &text)
{
    std::vector<TraceRecord> out;
    TraceParseError err;
    if (!tryParseTrace(text, out, err))
        fatal("{}", err.toString());
    return out;
}

std::string
formatTrace(const std::vector<TraceRecord> &records)
{
    std::ostringstream os;
    os << "# memsec trace: <gap> R|W <hex-address>\n";
    for (const auto &r : records) {
        os << r.gap << " " << (r.isStore ? "W" : "R") << " " << std::hex
           << r.addr << std::dec << "\n";
    }
    return os.str();
}

bool
isBinaryTrace(const std::string &bytes)
{
    return bytes.size() >= 8 &&
           std::memcmp(bytes.data(), kTraceMagic, 8) == 0;
}

std::string
formatBinaryTrace(const std::vector<TraceRecord> &records)
{
    Serializer out;
    out.putBytes({kTraceMagic, 8});
    out.putU32(kTraceVersion);
    out.putU32(kRecordsPerBlock);
    out.putU64(records.size());
    for (size_t i = 0; i < records.size(); i += kRecordsPerBlock) {
        const size_t n =
            std::min<size_t>(kRecordsPerBlock, records.size() - i);
        Serializer payload;
        for (size_t r = i; r < i + n; ++r) {
            payload.putU64(records[r].addr);
            payload.putU32(records[r].gap);
            payload.putU32(records[r].isStore ? 1 : 0); // flag + 3 pad
        }
        out.putU32(static_cast<uint32_t>(n));
        out.putU32(crc32c(payload.data()));
        out.putBytes(payload.data());
    }
    return out.take();
}

bool
tryParseBinaryTrace(const std::string &bytes,
                    std::vector<TraceRecord> &out, TraceParseError &err)
{
    auto failAt = [&](uint64_t offset, const std::string &message) {
        err.line = 0;
        err.byteOffset = offset;
        err.message = message;
        return false;
    };

    if (bytes.size() < kHeaderBytes)
        return failAt(bytes.size(), "truncated binary trace header");
    if (!isBinaryTrace(bytes))
        return failAt(0, "bad binary trace magic");
    Deserializer d(bytes);
    d.getU64(); // the magic
    const uint32_t version = d.getU32();
    if (version != kTraceVersion)
        return failAt(8, "unsupported binary trace version " +
                             std::to_string(version));
    const uint32_t perBlock = d.getU32();
    if (perBlock == 0)
        return failAt(12, "recordsPerBlock must be nonzero");
    const uint64_t total = d.getU64();

    out.reserve(out.size() + total);
    for (uint64_t seen = 0; seen < total;) {
        const uint64_t at = d.offset();
        if (d.remaining() < 8)
            return failAt(at, "truncated block header");
        const uint32_t count = d.getU32();
        const uint32_t crc = d.getU32();
        if (count == 0 || count > perBlock)
            return failAt(at, "bad block record count " +
                                  std::to_string(count));
        if (count > total - seen)
            return failAt(at, "block overruns declared record count");
        const size_t payloadBytes = size_t{count} * kRecordBytes;
        if (d.remaining() < payloadBytes)
            return failAt(at + 8, "truncated block payload");
        if (crc32c(bytes.data() + at + 8, payloadBytes) != crc)
            return failAt(at + 4, "block CRC mismatch");
        for (uint32_t r = 0; r < count; ++r) {
            TraceRecord rec;
            rec.addr = d.getU64();
            rec.gap = d.getU32();
            rec.isStore = (d.getU32() & 0xFF) != 0; // pad bytes ignored
            out.push_back(rec);
        }
        seen += count;
    }
    if (!d.atEnd())
        return failAt(d.offset(), "trailing bytes after last block");
    return true;
}

FileTraceGenerator::FileTraceGenerator(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open trace file '{}'", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    TraceParseError err;
    const bool ok = isBinaryTrace(bytes)
                        ? tryParseBinaryTrace(bytes, records_, err)
                        : tryParseTrace(bytes, records_, err);
    if (!ok)
        fatal("trace file '{}': {}", path, err.toString());
    fatal_if(records_.empty(), "trace file '{}' has no records", path);
}

FileTraceGenerator::FileTraceGenerator(std::vector<TraceRecord> records)
    : records_(std::move(records))
{
    fatal_if(records_.empty(), "empty trace");
}

TraceRecord
FileTraceGenerator::next()
{
    const TraceRecord rec = records_[pos_];
    if (++pos_ == records_.size()) {
        pos_ = 0;
        ++loops_;
    }
    return rec;
}

void
FileTraceGenerator::saveState(Serializer &s) const
{
    s.section("filetrace");
    s.putU64(records_.size());
    s.putU64(pos_);
    s.putU64(loops_);
}

void
FileTraceGenerator::restoreState(Deserializer &d)
{
    d.section("filetrace");
    if (d.getU64() != records_.size())
        d.fail("trace record count mismatch");
    pos_ = d.getU64();
    if (pos_ >= records_.size())
        d.fail("trace replay position out of range");
    loops_ = d.getU64();
}

void
recordTrace(TraceGenerator &gen, size_t count, const std::string &path,
            bool binary)
{
    std::vector<TraceRecord> records;
    records.reserve(count);
    for (size_t i = 0; i < count; ++i)
        records.push_back(gen.next());
    std::ofstream out(path, std::ios::binary);
    fatal_if(!out, "cannot open '{}' for writing", path);
    out << (binary ? formatBinaryTrace(records) : formatTrace(records));
}

} // namespace memsec::cpu
