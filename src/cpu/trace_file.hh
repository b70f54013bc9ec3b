/**
 * @file
 * Trace file I/O.
 *
 * The original evaluation replays SPEC regions; this repository ships
 * synthetic generators, but downstream users will want to feed their
 * own traces. The format is USIMM-flavoured text, one record per
 * line:
 *
 *     <gap> R|W <hex-address>
 *
 * where <gap> is the number of non-memory instructions preceding the
 * operation. '#' starts a comment. A FileTraceGenerator replays a
 * trace (looping at EOF, like USIMM); recordTrace() samples any
 * generator to a file, so synthetic workloads can be exported,
 * inspected, or replayed bit-identically elsewhere.
 *
 * Long campaigns replay traces far too large for text parsing, so a
 * binary sibling format exists (see docs/CHECKPOINT.md):
 *
 *     "MSTRACE1"            8-byte magic
 *     u32 version           currently 1
 *     u32 recordsPerBlock   records per CRC block (last may be short)
 *     u64 recordCount       total records in the file
 *     blocks: { u32 count, u32 crc32c(payload),
 *               count x { u64 addr, u32 gap, u8 isStore, u8 pad[3] } }
 *
 * All fields little-endian. Each block's payload is independently
 * CRC32C-checksummed so a single flipped bit is caught at load time
 * and reported with its byte offset. FileTraceGenerator sniffs the
 * magic and accepts either format; text stays the debug view.
 */

#ifndef MEMSEC_CPU_TRACE_FILE_HH
#define MEMSEC_CPU_TRACE_FILE_HH

#include <string>
#include <vector>

#include "cpu/trace.hh"

namespace memsec::cpu {

/** Replays a trace file, looping at end-of-file. */
class FileTraceGenerator : public TraceGenerator
{
  public:
    /** Parse the whole file up front; fatal on malformed lines. */
    explicit FileTraceGenerator(const std::string &path);

    /** Build directly from records (testing / programmatic use). */
    explicit FileTraceGenerator(std::vector<TraceRecord> records);

    TraceRecord next() override;

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

    size_t size() const { return records_.size(); }

    /** Times the trace has wrapped back to the start. */
    uint64_t loops() const { return loops_; }

  private:
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar);

    std::vector<TraceRecord> records_;
    size_t pos_ = 0;
    uint64_t loops_ = 0;
};

/** Where and why trace parsing failed (line is 1-based). */
struct TraceParseError
{
    int line = 0;
    /** Byte offset into the input where the bad record starts
     *  (binary traces report the offending block/field here). */
    uint64_t byteOffset = 0;
    std::string message;

    /** "trace line N (byte B): message". */
    std::string toString() const;
};

/**
 * Parse trace text (the file format above). Returns false and fills
 * `err` on the first malformed record: truncated lines, bad access
 * kinds, unparsable addresses, and garbage where the gap should be
 * are all rejected rather than silently skipped.
 */
bool tryParseTrace(const std::string &text, std::vector<TraceRecord> &out,
                   TraceParseError &err);

/** tryParseTrace(); fatal on bad input (CLI entry points only). */
std::vector<TraceRecord> parseTrace(const std::string &text);

/** Render records in the file format. */
std::string formatTrace(const std::vector<TraceRecord> &records);

/** True if `bytes` starts with the binary-trace magic. */
bool isBinaryTrace(const std::string &bytes);

/** Render records in the binary format described above. */
std::string formatBinaryTrace(const std::vector<TraceRecord> &records);

/**
 * Parse a binary trace. Returns false and fills `err` (line stays 0;
 * byteOffset points at the corrupt header field or block) on short
 * reads, version mismatches, record-count disagreements, and CRC
 * failures.
 */
bool tryParseBinaryTrace(const std::string &bytes,
                         std::vector<TraceRecord> &out,
                         TraceParseError &err);

/**
 * Sample `count` records from `gen` and write them to `path`;
 * `binary` selects the binary format over text.
 */
void recordTrace(TraceGenerator &gen, size_t count,
                 const std::string &path, bool binary = false);

} // namespace memsec::cpu

#endif // MEMSEC_CPU_TRACE_FILE_HH
