#include "cpu/trace_file.hh"

#include <algorithm>
#include <array>
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

/** The binary file header: magic, version, block size, record count. */
struct BinaryHeader
{
    std::array<char, 8> magic{};
    uint32_t version = kTraceVersion;
    uint32_t perBlock = kRecordsPerBlock;
    uint64_t total = 0;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.magic, self.version, self.perBlock, self.total);
    }
};

/** One binary record: address, gap, then a u32 whose low byte is the
 *  store flag (the three pad bytes are written 0, ignored on read). */
template <class Rec, class Ar>
void
ioRecord(Rec &rec, Ar &ar)
{
    uint32_t flag = rec.isStore ? 1 : 0;
    ar.io(rec.addr, rec.gap, flag);
    if constexpr (Ar::loading)
        rec.isStore = (flag & 0xFF) != 0;
}

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
    BinaryHeader header;
    std::copy_n(kTraceMagic, 8, header.magic.begin());
    header.total = records.size();
    Serializer out;
    out.io(header);
    for (size_t i = 0; i < records.size(); i += kRecordsPerBlock) {
        const size_t n =
            std::min<size_t>(kRecordsPerBlock, records.size() - i);
        Serializer payload;
        for (size_t r = i; r < i + n; ++r)
            ioRecord(records[r], payload);
        out.io(static_cast<uint32_t>(n), crc32c(payload.data()));
        out.raw(payload.data());
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
    BinaryHeader header;
    d.io(header);
    if (header.version != kTraceVersion)
        return failAt(8, "unsupported binary trace version " +
                             std::to_string(header.version));
    const uint32_t perBlock = header.perBlock;
    if (perBlock == 0)
        return failAt(12, "recordsPerBlock must be nonzero");
    const uint64_t total = header.total;

    out.reserve(out.size() + total);
    for (uint64_t seen = 0; seen < total;) {
        const uint64_t at = d.offset();
        if (d.remaining() < 8)
            return failAt(at, "truncated block header");
        uint32_t count = 0;
        uint32_t crc = 0;
        d.io(count, crc);
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
            ioRecord(rec, d);
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

template <class Self, class Ar>
void
FileTraceGenerator::io(Self &self, Ar &ar)
{
    ar.section("filetrace");
    ar.expect(self.records_.size(), "trace record count mismatch");
    ar.io(self.pos_);
    if constexpr (Ar::loading) {
        if (self.pos_ >= self.records_.size())
            ar.fail("trace replay position out of range");
    }
    ar.io(self.loops_);
}

void
FileTraceGenerator::saveState(Serializer &s) const
{
    io(*this, s);
}

void
FileTraceGenerator::restoreState(Deserializer &d)
{
    io(*this, d);
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
