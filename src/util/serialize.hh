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

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace memsec {

/** Snapshot container format version; bump on a container layout
 *  change (a component's layout change renames its section tag). */
constexpr uint32_t kSnapshotVersion = 1;

// Field widths follow field types, and the layouts store size_t
// counts and cursors as u64.
static_assert(sizeof(size_t) == 8, "snapshot layouts assume a 64-bit size_t");

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

/**
 * A field encoded at width W whatever its own integer type, for the
 * few layouts whose width differs from the field's (an int stored as
 * i64): `ar.io(as<int64_t>(offset))`.
 */
template <class W, class T>
struct AsWidth
{
    using Width = W;
    T &field;
};

template <class W, class T>
AsWidth<W, T>
as(T &field)
{
    return {field};
}

namespace detail {

template <class T>
struct IsSequence : std::false_type
{
};
template <class T, class A>
struct IsSequence<std::vector<T, A>> : std::true_type
{
};
template <class T, class A>
struct IsSequence<std::deque<T, A>> : std::true_type
{
};

template <class T>
struct IsMap : std::false_type
{
};
template <class K, class V, class C, class A>
struct IsMap<std::map<K, V, C, A>> : std::true_type
{
};

template <class T>
struct IsAsWidth : std::false_type
{
};
template <class W, class T>
struct IsAsWidth<AsWidth<W, T>> : std::true_type
{
};

template <class T>
struct IsArray : std::is_array<T>
{
};
template <class T, size_t N>
struct IsArray<std::array<T, N>> : std::true_type
{
};

} // namespace detail

/**
 * Append-only little-endian encoder.
 *
 * A checkpointed class lists its fields once, in a walk shared by
 * both directions:
 *
 *     template <class Self, class Ar>
 *     static void io(Self &self, Ar &ar)
 *     {
 *         ar.section("bank");
 *         ar.io(self.openRow_, self.nextAct_);
 *         if constexpr (Ar::loading)
 *             self.rebuildDerivedState();
 *     }
 *
 * called with `const Self` and a Serializer to save, and with a
 * Deserializer to restore. Each field's encoding follows from its
 * type: bool and 1-byte integers and enums as u8, 4-byte integers as
 * u32, 8-byte integers as u64, doubles as their IEEE-754 bits,
 * strings, vectors, deques and maps with a u64 length prefix, arrays
 * element by element, and classes through their own saveState (or
 * their static io walk). The typed put/get calls are private, so a
 * layout cannot be written as a hand-mirrored pair again.
 */
class Serializer
{
  public:
    static constexpr bool loading = false;

    /** Write each field in order. */
    template <class... Ts>
    void io(const Ts &...fields)
    {
        (write(fields), ...);
    }

    /** A u64 the reader must find equal to its own (a config-derived
     *  count), failing with `mismatch` otherwise. */
    void expect(uint64_t v, const char * /* mismatch */) { putU64(v); }

    /** A config-sized container: its length, checked on load against
     *  the reader's own (failing with `mismatch`), then each element
     *  walked by `fn` (default: its own encoding). */
    template <class C, class F>
    void sized(const C &c, const char *mismatch, F &&fn)
    {
        expect(c.size(), mismatch);
        for (const auto &e : c)
            fn(e);
    }
    template <class C>
    void sized(const C &c, const char *mismatch)
    {
        sized(c, mismatch, [this](const auto &e) { write(e); });
    }

    /** A length-prefixed sequence whose elements `fn` walks; a map's
     *  entries are walked as fn(key, value). */
    template <class C, class F>
    void seq(const C &c, F &&fn)
    {
        putU64(c.size());
        for (const auto &e : c) {
            if constexpr (detail::IsMap<C>::value)
                fn(e.first, e.second);
            else
                fn(e);
        }
    }

    /**
     * Emit a named section marker. The matching Deserializer::section
     * call verifies it, so a reader/writer mismatch fails loudly at
     * the boundary that drifted instead of silently mis-decoding
     * everything after it.
     */
    void section(std::string_view tag) { putString(tag); }

    /** Raw bytes, no length (a pre-encoded, separately framed block). */
    void raw(std::string_view v) { buf_.append(v); }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    friend std::string encodeSnapshot(std::string_view,
                                      std::string_view);

    template <class T>
    void write(const T &v);

    void putU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    /** IEEE-754 bit pattern; round-trips exactly. */
    void putDouble(double v);
    /** u64 length followed by raw bytes. */
    void putString(std::string_view v);

    std::string buf_;
};

/** Bounds-checked little-endian decoder; throws SerializeError. */
class Deserializer
{
  public:
    static constexpr bool loading = true;

    explicit Deserializer(std::string_view data) : data_(data) {}

    /** Read each field in order (see Serializer for the encodings). */
    template <class... Ts>
    void io(Ts &&...fields)
    {
        static_assert(((std::is_lvalue_reference_v<Ts> ||
                        detail::IsAsWidth<std::decay_t<Ts>>::value) &&
                       ...),
                      "a field read must land in an lvalue");
        (read(fields), ...);
    }

    /** Read a u64 and fail with `mismatch` unless it equals `v`. */
    void expect(uint64_t v, const char *mismatch)
    {
        if (getU64() != v)
            fail(mismatch);
    }

    template <class C, class F>
    void sized(C &c, const char *mismatch, F &&fn)
    {
        expect(c.size(), mismatch);
        for (auto &e : c)
            fn(e);
    }
    template <class C>
    void sized(C &c, const char *mismatch)
    {
        sized(c, mismatch, [this](auto &e) { read(e); });
    }

    /** Replace `c` with a length-prefixed sequence; each element is
     *  value-initialized, appended, then walked by `fn` (a map entry
     *  is walked as fn(key, value), then inserted). */
    template <class C, class F>
    void seq(C &c, F &&fn)
    {
        const uint64_t n = getU64();
        c.clear();
        for (uint64_t i = 0; i < n; ++i) {
            if constexpr (detail::IsMap<C>::value) {
                typename C::key_type key{};
                typename C::mapped_type value{};
                fn(key, value);
                c.emplace(std::move(key), std::move(value));
            } else {
                c.emplace_back();
                fn(c.back());
            }
        }
    }

    /** Verify a section marker written by Serializer::section. */
    void section(std::string_view tag);

    uint64_t offset() const { return pos_; }
    size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    /** Throw a "snapshot-corrupt" error at the current offset. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    friend std::string decodeSnapshot(std::string_view,
                                      std::string_view);

    template <class T>
    void read(T &v);

    uint8_t getU8();
    uint32_t getU32();
    uint64_t getU64();
    bool getBool();
    double getDouble();
    std::string getString();

    /** Ensure n more bytes exist; throws "snapshot-truncate". */
    void need(size_t n) const;

    std::string_view data_;
    size_t pos_ = 0;
};

template <class T>
void
Serializer::write(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        putU8(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
        static_assert(sizeof(T) == 1, "snapshot enums are stored as u8");
        putU8(static_cast<uint8_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
        static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8,
                      "no snapshot width for this integer");
        if constexpr (sizeof(T) == 1)
            putU8(static_cast<uint8_t>(v));
        else if constexpr (sizeof(T) == 4)
            putU32(static_cast<uint32_t>(v));
        else
            putU64(static_cast<uint64_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
        putDouble(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        putString(v);
    } else if constexpr (detail::IsAsWidth<T>::value) {
        write(static_cast<typename T::Width>(v.field));
    } else if constexpr (detail::IsArray<T>::value) {
        for (const auto &e : v)
            write(e);
    } else if constexpr (detail::IsSequence<T>::value) {
        seq(v, [this](const auto &e) { write(e); });
    } else if constexpr (detail::IsMap<T>::value) {
        seq(v, [this](const auto &key, const auto &value) {
            io(key, value);
        });
    } else if constexpr (requires(Serializer &s) { v.saveState(s); }) {
        v.saveState(*this);
    } else {
        T::io(v, *this);
    }
}

template <class T>
void
Deserializer::read(T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        v = getBool();
    } else if constexpr (std::is_enum_v<T>) {
        static_assert(sizeof(T) == 1, "snapshot enums are stored as u8");
        const uint8_t raw = getU8();
        // enumLast(T) is declared beside each snapshot enum.
        if (raw > static_cast<uint8_t>(enumLast(T{})))
            fail("enum byte " + std::to_string(raw) + " out of range");
        v = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
        static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8,
                      "no snapshot width for this integer");
        if constexpr (sizeof(T) == 1)
            v = static_cast<T>(getU8());
        else if constexpr (sizeof(T) == 4)
            v = static_cast<T>(getU32());
        else
            v = static_cast<T>(getU64());
    } else if constexpr (std::is_same_v<T, double>) {
        v = getDouble();
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = getString();
    } else if constexpr (detail::IsAsWidth<T>::value) {
        typename T::Width w{};
        read(w);
        v.field = static_cast<std::remove_reference_t<decltype(v.field)>>(w);
    } else if constexpr (detail::IsArray<T>::value) {
        for (auto &e : v)
            read(e);
    } else if constexpr (detail::IsSequence<T>::value ||
                         detail::IsMap<T>::value) {
        seq(v, [this](auto &...e) { (read(e), ...); });
    } else if constexpr (requires(Deserializer &d) { v.restoreState(d); }) {
        v.restoreState(*this);
    } else {
        T::io(v, *this);
    }
}

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
