#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/logging.hh"

namespace memsec {

namespace {

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> d(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        d[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diag = d[0];
        d[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            const size_t up = d[j];
            d[j] = std::min({up + 1, d[j - 1] + 1,
                             diag + (a[i - 1] != b[j - 1])});
            diag = up;
        }
    }
    return d[b.size()];
}

} // namespace

Config &
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
    return *this;
}

Config &
Config::set(const std::string &key, const char *value)
{
    values_[key] = value;
    return *this;
}

Config &
Config::set(const std::string &key, int64_t value)
{
    values_[key] = std::to_string(value);
    return *this;
}

Config &
Config::set(const std::string &key, uint64_t value)
{
    values_[key] = std::to_string(value);
    return *this;
}

Config &
Config::set(const std::string &key, int value)
{
    return set(key, static_cast<int64_t>(value));
}

Config &
Config::set(const std::string &key, unsigned value)
{
    return set(key, static_cast<uint64_t>(value));
}

Config &
Config::set(const std::string &key, double value)
{
    std::ostringstream os;
    os << value;
    values_[key] = os.str();
    return *this;
}

Config &
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
    return *this;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

void
Config::erase(const std::string &key)
{
    values_.erase(key);
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
}

int64_t
Config::getInt(const std::string &key, int64_t dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    int64_t v = std::strtoll(text, &end, 0);
    fatal_if(end == text || *end != '\0' || errno == ERANGE,
             "config key '{}' has non-integer value '{}'", key, it->second);
    return v;
}

uint64_t
Config::getUint(const std::string &key, uint64_t dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    // strtoull accepts a leading '-' and negates in unsigned
    // arithmetic, so "-1" would read as 2^64 - 1.
    const char *text = it->second.c_str();
    const char *first = text;
    while (std::isspace(static_cast<unsigned char>(*first)))
        ++first;
    char *end = nullptr;
    errno = 0;
    uint64_t v = std::strtoull(text, &end, 0);
    fatal_if(end == text || *end != '\0' || errno == ERANGE ||
                 *first == '-',
             "config key '{}' has non-integer value '{}'", key, it->second);
    return v;
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    // strtod also consumes "nan", "inf" and overflowing literals; a
    // non-finite value slips past every range guard downstream.
    fatal_if(end == it->second.c_str() || *end != '\0' ||
                 !std::isfinite(v),
             "config key '{}' has non-numeric value '{}'", key, it->second);
    return v;
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return dflt;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key '{}' has non-boolean value '{}'", key, it->second);
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

void
Config::merge(const Config &other)
{
    for (const auto &kv : other.values_)
        values_[kv.first] = kv.second;
}

std::string
ConfigParseError::toString() const
{
    std::ostringstream os;
    os << file;
    if (line > 0)
        os << ":" << line << " (byte " << byteOffset << ")";
    os << ": " << message;
    return os.str();
}

bool
Config::tryParseIni(const std::string &text, Config &out,
                    ConfigParseError &err, const std::string &file)
{
    auto failAt = [&](int lineno, uint64_t offset,
                      const std::string &message) {
        err.file = file;
        err.line = lineno;
        err.byteOffset = offset;
        err.message = message;
        return false;
    };

    std::istringstream in(text);
    std::string line;
    std::string section;
    int lineno = 0;
    uint64_t offset = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const uint64_t lineStart = offset;
        offset += line.size() + 1; // +1 for the consumed '\n'
        auto hash = line.find_first_of("#;");
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                return failAt(lineno, lineStart,
                              "unterminated section '" + line + "'");
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }
        auto eq = line.find('=');
        if (eq == std::string::npos)
            return failAt(lineno, lineStart,
                          "expected 'key = value', got '" + line + "'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            return failAt(lineno, lineStart, "empty key");
        if (!section.empty())
            key = section + "." + key;
        out.set(key, value);
    }
    return true;
}

bool
Config::tryLoadFile(const std::string &path, Config &out,
                    ConfigParseError &err)
{
    std::ifstream in(path);
    if (!in) {
        err.file = path;
        err.line = 0;
        err.message = "cannot open config file '" + path + "'";
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    return tryParseIni(os.str(), out, err, path);
}

Config
Config::parseIni(const std::string &text)
{
    Config cfg;
    ConfigParseError err;
    if (!tryParseIni(text, cfg, err))
        fatal("config line {}: {}", err.line, err.message);
    return cfg;
}

Config
Config::loadFile(const std::string &path)
{
    Config cfg;
    ConfigParseError err;
    if (!tryLoadFile(path, cfg, err)) {
        if (err.line == 0)
            fatal("{}", err.message);
        fatal("{}: config line {}: {}", err.file, err.line, err.message);
    }
    return cfg;
}

std::string
Config::toString() const
{
    std::ostringstream os;
    for (const auto &kv : values_)
        os << kv.first << " = " << kv.second << "\n";
    return os.str();
}

Config
withDefaults(const Config &cfg, std::span<const ConfigKey> keys)
{
    Config out = cfg;
    for (const ConfigKey &k : keys) {
        if (k.dflt && !k.removed && !out.has(k.name))
            out.set(k.name, k.dflt);
    }
    return out;
}

std::string
configErrors(const Config &cfg, std::span<const ConfigKey> keys,
             const std::function<std::string(const std::string &)> &rowOf)
{
    std::string errors;
    auto error = [&](const char *fmt, const auto &...args) {
        errors += "\n  config key " + detail::format(fmt, args...);
    };
    auto rowFor = [&](const std::string &key) {
        const std::string name = rowOf ? rowOf(key) : key;
        return std::ranges::find_if(
            keys, [&](const ConfigKey &k) { return name == k.name; });
    };
    for (const std::string &key : cfg.keys()) {
        const auto row = rowFor(key);
        if (row != keys.end() && row->removed) {
            error("'{}' was removed {}", key, row->removed);
        } else if (row == keys.end()) {
            const auto nearest = std::min_element(
                keys.begin(), keys.end(),
                [&](const ConfigKey &a, const ConfigKey &b) {
                    return std::pair(!!a.removed, editDistance(key, a.name)) <
                           std::pair(!!b.removed, editDistance(key, b.name));
                });
            error("'{}' is not a known key; did you mean '{}'?", key,
                  nearest->name);
        }
    }
    if (!errors.empty())
        return errors;
    for (const std::string &key : cfg.keys()) {
        const ConfigKey &row = *rowFor(key);
        const std::string value = cfg.getString(key);
        if (row.choices) {
            const auto names = row.choices();
            std::string list;
            for (const std::string &name : names)
                list += (list.empty() ? "" : ", ") + name;
            if (std::ranges::find(names, value) == names.end())
                error("'{}' has value '{}'; expected one of: {}", key, value,
                      list);
        }
        // The typed getters are fatal on an ill-typed value.
        double v = 0.0;
        if (row.type == ConfigType::Bool)
            cfg.getBool(key);
        else if (row.type == ConfigType::Int)
            v = static_cast<double>(cfg.getInt(key));
        else if (row.type == ConfigType::Uint)
            v = static_cast<double>(cfg.getUint(key));
        else if (row.type == ConfigType::Double)
            v = cfg.getDouble(key);
        if (v < row.lo || v > row.hi || (row.hiOpen && v == row.hi))
            error("'{}' = {} is outside [{}, {}{}", key, value, row.lo,
                  row.hi, row.hiOpen ? ")" : "]");
    }
    return errors;
}

} // namespace memsec
