/**
 * @file
 * Typed key/value configuration store.
 *
 * Experiments are assembled from a flat Config: keys are dotted names
 * ("dram.ranks", "sched.policy"). Values are stored as strings and
 * converted on read. Each subsystem declares the keys it reads once,
 * as ConfigKey rows; withDefaults() fills absent keys from the rows and
 * configErrors() rejects a config the rows do not describe. An
 * INI-style parser is provided so the example programs can load
 * configs from files.
 */

#ifndef MEMSEC_SIM_CONFIG_HH
#define MEMSEC_SIM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace memsec {

/**
 * Where and why a config parse failed. `line` is 1-based; 0 means the
 * failure was not line-specific (e.g. an unreadable file).
 */
struct ConfigParseError
{
    std::string file; ///< "<string>" when parsing in-memory text
    int line = 0;
    /** Byte offset into the input where the bad line starts. */
    uint64_t byteOffset = 0;
    std::string message;

    /** "file:line (byte B): message" ("file: message" if line == 0). */
    std::string toString() const;
};

/** Flat string-keyed configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    Config &set(const std::string &key, const std::string &value);
    Config &set(const std::string &key, const char *value);
    Config &set(const std::string &key, int64_t value);
    Config &set(const std::string &key, uint64_t value);
    Config &set(const std::string &key, int value);
    Config &set(const std::string &key, unsigned value);
    Config &set(const std::string &key, double value);
    Config &set(const std::string &key, bool value);

    /** True if key is present. */
    bool has(const std::string &key) const;

    /** Remove a key if present. */
    void erase(const std::string &key);

    /** Typed getters; return dflt when the key is absent. */
    std::string getString(const std::string &key,
                          const std::string &dflt = "") const;
    int64_t getInt(const std::string &key, int64_t dflt = 0) const;
    uint64_t getUint(const std::string &key, uint64_t dflt = 0) const;
    double getDouble(const std::string &key, double dflt = 0.0) const;
    bool getBool(const std::string &key, bool dflt = false) const;

    /** All keys in sorted order (for dumping). */
    std::vector<std::string> keys() const;

    /** Merge other into this; other's values win on conflict. */
    void merge(const Config &other);

    /**
     * Parse INI-style text: "key = value" lines, optional [section]
     * headers that prefix subsequent keys with "section.", '#' or ';'
     * comments. Returns false and fills `err` (with file/line context)
     * on the first malformed line, leaving `out` partially filled.
     */
    static bool tryParseIni(const std::string &text, Config &out,
                            ConfigParseError &err,
                            const std::string &file = "<string>");

    /** tryParseIni() on a file's contents; false with err.line == 0 if
     *  the file cannot be read. */
    static bool tryLoadFile(const std::string &path, Config &out,
                            ConfigParseError &err);

    /**
     * Parse INI-style text; malformed lines are a fatal error. Only
     * appropriate at top-level CLI entry points — library code should
     * use tryParseIni() and propagate the structured error.
     */
    static Config parseIni(const std::string &text);

    /** Load parseIni() from a file; fatal if unreadable. */
    static Config loadFile(const std::string &path);

    /** Render as sorted "key = value" lines. */
    std::string toString() const;

  private:
    std::map<std::string, std::string> values_;
};

/** How a key's value is read. */
enum class ConfigType { String, Bool, Int, Uint, Double };

/** One declared config key. */
struct ConfigKey
{
    const char *name;
    ConfigType type;
    const char *dflt = nullptr; ///< static default; null if computed
    /** The closed set of accepted strings; null accepts any string. */
    std::vector<std::string> (*choices)() = nullptr;
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool hiOpen = false; ///< the range is [lo, hi), not [lo, hi]
    bool digest = true;  ///< false: never changes what a run computes
    const char *removed = nullptr; ///< why the key went, if it did
};

/** One accepted string value of a key and what it selects. */
template <typename T>
struct ConfigChoice
{
    const char *name;
    T value;
};

/** The names in a table of {name, ...} entries, as a key's choices. */
template <const auto &Table>
std::vector<std::string>
choiceNames()
{
    std::vector<std::string> out;
    for (const auto &entry : Table)
        out.push_back(entry.name);
    return out;
}

/** The value `name` selects in `table`; fatal naming `key` otherwise. */
template <typename T, size_t N>
T
choiceValue(const ConfigChoice<T> (&table)[N], const std::string &key,
            const std::string &name)
{
    for (const auto &entry : table) {
        if (name == entry.name)
            return entry.value;
    }
    fatal("config key '{}' has unknown value '{}'", key, name);
}

/**
 * One combination of keys the model does not support, declared once
 * (docs/CONFIG.md, "Combination rules", lists each by name). Its
 * complaint reads "<subject> <why>; <fix>".
 */
struct ConfigRule
{
    const char *name;
    const char *subject; ///< the keys the rule constrains
    const char *fix;
    /** Why a filled, well-typed config breaks the rule, or "". */
    std::string (*problem)(const Config &cfg);
};

/** `cfg` with every live key's static default filled in where absent. */
Config withDefaults(const Config &cfg, std::span<const ConfigKey> keys);

/**
 * Every problem with `cfg` against the declared `keys` and `rules`,
 * one indented line each, or "" if there is none: unknown keys
 * (naming the nearest declared key) and removed keys, or else values
 * that do not read as their type, are out of range or are outside
 * their set, or else the broken rules. `rowOf` maps a key to the
 * declared name it is checked as, or to "" if it is unknown.
 */
std::string
configErrors(const Config &cfg, std::span<const ConfigKey> keys,
             const std::function<std::string(const std::string &)>
                 &rowOf = nullptr,
             std::span<const ConfigRule> rules = {});

} // namespace memsec

#endif // MEMSEC_SIM_CONFIG_HH
