/**
 * @file
 * Versioned binary serialization for deterministic snapshots.
 *
 * Every snapshot is a little-endian byte stream framed in a container
 * with a magic, a format version, the canonical config fingerprint of
 * the run that produced it, and a CRC32C over the payload. Decoding
 * never trusts the input: truncation, bit flips, version skew and
 * fingerprint mismatches all surface as SerializeError with a
 * structured category, so the caller can report a recoverable
 * SimError instead of restoring garbage state.
 *
 * Scalar encodings are fixed-width little-endian regardless of host
 * byte order; doubles are stored as their IEEE-754 bit pattern so a
 * restore round-trips hexfloat-exactly.
 */

#ifndef MEMSEC_UTIL_SERIALIZE_HH
#define MEMSEC_UTIL_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace memsec {

/** Snapshot container format version; bump on any layout change. */
constexpr uint32_t kSnapshotVersion = 1;

/** Magic prefix of every snapshot container file. */
constexpr char kSnapshotMagic[9] = "MSECSNAP";

/**
 * Structured decode failure. `category` is one of the stable strings
 * used as SimError categories by the durability layer:
 *  - "snapshot-truncate": input ended before the declared content
 *  - "snapshot-corrupt":  magic/CRC/structure mismatch (bit damage)
 *  - "snapshot-version":  container version != kSnapshotVersion
 *  - "snapshot-stale":    embedded fingerprint != expected fingerprint
 */
struct SerializeError
{
    uint64_t offset = 0;  ///< byte offset where decoding failed
    std::string category; ///< stable machine-readable reason
    std::string message;  ///< human-readable detail

    std::string toString() const;
};

/** Append-only little-endian encoder. */
class Serializer
{
  public:
    void putU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putI64(int64_t v) { putU64(static_cast<uint64_t>(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    /** IEEE-754 bit pattern; round-trips exactly. */
    void putDouble(double v);
    /** u64 length followed by raw bytes. */
    void putString(std::string_view v);
    /** Raw bytes, no length. */
    void putBytes(std::string_view v) { buf_.append(v); }

    /**
     * Emit a named section marker. The matching Deserializer::section
     * call verifies it, so a reader/writer mismatch fails loudly at
     * the boundary that drifted instead of silently mis-decoding
     * everything after it.
     */
    void section(std::string_view tag) { putString(tag); }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Bounds-checked little-endian decoder; throws SerializeError. */
class Deserializer
{
  public:
    explicit Deserializer(std::string_view data) : data_(data) {}

    uint8_t getU8();
    uint32_t getU32();
    uint64_t getU64();
    int64_t getI64() { return static_cast<int64_t>(getU64()); }
    bool getBool();
    double getDouble();
    std::string getString();

    /** Verify a section marker written by Serializer::section. */
    void section(std::string_view tag);

    uint64_t offset() const { return pos_; }
    size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    /** Throw a "snapshot-corrupt" error at the current offset. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    /** Ensure n more bytes exist; throws "snapshot-truncate". */
    void need(size_t n) const;

    std::string_view data_;
    size_t pos_ = 0;
};

/** CRC32C (Castagnoli, reflected 0x82F63B78), software table. */
uint32_t crc32c(const void *data, size_t len, uint32_t seed = 0);
inline uint32_t
crc32c(std::string_view s, uint32_t seed = 0)
{
    return crc32c(s.data(), s.size(), seed);
}

/**
 * Wrap a payload in the snapshot container:
 *   magic(8) | version u32 | fingerprint string | payload-length u64 |
 *   crc32c(payload) u32 | payload bytes.
 */
std::string encodeSnapshot(std::string_view fingerprint,
                           std::string_view payload);

/**
 * Unwrap a snapshot container, verifying magic, version, fingerprint
 * (when `expectedFingerprint` is nonempty) and payload CRC. Throws
 * SerializeError with the categories documented above.
 */
std::string decodeSnapshot(std::string_view bytes,
                           std::string_view expectedFingerprint);

/**
 * Write bytes to `path` atomically (tmp file + rename) so a crash
 * mid-write can never leave a half-written snapshot under the final
 * name. Returns false (with a warning) on I/O failure — durability is
 * best-effort; the simulation itself must not die because a disk did.
 */
bool writeFileAtomic(const std::string &path, std::string_view bytes);

/** Read a whole file; returns false if it cannot be opened. */
bool readFileBytes(const std::string &path, std::string &out);

/**
 * Create `dir` (and parents) if missing. Returns false (with a
 * warning) on failure; an existing directory is success.
 */
bool ensureDirectory(const std::string &dir);

} // namespace memsec

#endif // MEMSEC_UTIL_SERIALIZE_HH
