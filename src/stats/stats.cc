#include "stats/stats.hh"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/logging.hh"

namespace memsec {

void
Average::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

double
Average::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Average::min() const
{
    return count_ ? min_ : 0.0;
}

double
Average::max() const
{
    return count_ ? max_ : 0.0;
}

void
Average::reset()
{
    sum_ = 0.0;
    count_ = 0;
    min_ = 0.0;
    max_ = 0.0;
}

void
Histogram::init(double lo, double binWidth, size_t nbins)
{
    panic_if(binWidth <= 0.0, "Histogram bin width must be positive");
    panic_if(nbins == 0, "Histogram needs at least one bin");
    lo_ = lo;
    width_ = binWidth;
    bins_.assign(nbins, 0);
    underflow_ = overflow_ = samples_ = 0;
    sum_ = 0.0;
}

void
Histogram::sample(double v, uint64_t weight)
{
    panic_if(bins_.empty(), "Histogram::sample before init");
    samples_ += weight;
    sum_ += v * static_cast<double>(weight);
    if (v < lo_) {
        underflow_ += weight;
        return;
    }
    size_t idx = static_cast<size_t>((v - lo_) / width_);
    if (idx >= bins_.size()) {
        overflow_ += weight;
        return;
    }
    bins_[idx] += weight;
}

double
Histogram::mean() const
{
    return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
}

double
Histogram::percentile(double p) const
{
    panic_if(p < 0.0 || p > 1.0, "percentile p out of range: {}", p);
    if (samples_ == 0)
        return 0.0;
    // Continuous target mass. Linear interpolation within the bin
    // that crosses it: samples inside a bin are assumed uniformly
    // spread, so the answer lands `covered/binCount` of the way
    // through the bin instead of pinning to the upper edge (which
    // overstated the value by up to one bin width — material for
    // p99.9 SLA tables with coarse bins).
    const double target = p * static_cast<double>(samples_);
    if (static_cast<double>(underflow_) >= target)
        return lo_; // below-range mass: lo_ is the tightest bound
    double seen = static_cast<double>(underflow_);
    for (size_t i = 0; i < bins_.size(); ++i) {
        const double c = static_cast<double>(bins_[i]);
        if (seen + c >= target && c > 0.0) {
            return lo_ + width_ * static_cast<double>(i) +
                   width_ * (target - seen) / c;
        }
        seen += c;
    }
    // The target mass lies in the overflow bucket: the true value is
    // beyond the top edge and the histogram cannot bound it. Say so
    // explicitly instead of silently clamping to the top edge.
    return std::numeric_limits<double>::infinity();
}

void
Histogram::merge(const Histogram &other)
{
    panic_if(lo_ != other.lo_ || width_ != other.width_ ||
                 bins_.size() != other.bins_.size(),
             "Histogram::merge with mismatched bin layout");
    for (size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    samples_ += other.samples_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    for (auto &b : bins_)
        b = 0;
    underflow_ = overflow_ = samples_ = 0;
    sum_ = 0.0;
}

StatGroup::StatGroup(std::string name) : name_(std::move(name))
{
}

void
StatGroup::add(const std::string &name, const Counter *c,
               const std::string &desc)
{
    entries_.push_back({name, desc,
                        [c] { return static_cast<double>(c->value()); },
                        nullptr});
}

void
StatGroup::add(const std::string &name, const Scalar *s,
               const std::string &desc)
{
    entries_.push_back({name, desc, [s] { return s->value(); }, nullptr});
}

void
StatGroup::add(const std::string &name, const Average *a,
               const std::string &desc)
{
    entries_.push_back({name, desc, [a] { return a->mean(); }, nullptr});
}

void
StatGroup::add(const std::string &name, const Histogram *h,
               const std::string &desc)
{
    entries_.push_back({name, desc, [h] { return h->mean(); }, h});
}

void
StatGroup::addFormula(const std::string &name, std::function<double()> fn,
                      const std::string &desc)
{
    entries_.push_back({name, desc, std::move(fn), nullptr});
}

void
StatGroup::adopt(const std::string &prefix, const StatGroup &other)
{
    for (const auto &e : other.entries_) {
        entries_.push_back(
            {prefix + "." + e.name, e.desc, e.value, e.hist});
    }
}

namespace {

/**
 * Render a stat value losslessly: integral values (cycle and event
 * counters) print as integers with every digit — the default
 * 6-significant-digit ostream formatting silently rounds anything
 * above ~1e6 — and non-integral values print with max_digits10 so
 * they round-trip through parsing exactly.
 */
std::string
formatValue(double v)
{
    std::ostringstream os;
    if (std::isfinite(v) && v == std::rint(v) &&
        std::abs(v) <= 9.007199254740992e15) {
        os << static_cast<int64_t>(v);
    } else {
        os << std::setprecision(
                  std::numeric_limits<double>::max_digits10)
           << v;
    }
    return os.str();
}

} // namespace

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &e : entries_) {
        // std::left applies to the name column only; the value column
        // is right-aligned (std::left is sticky and used to bleed).
        os << std::left << std::setw(44) << e.name << std::right << " "
           << std::setw(16) << formatValue(e.value());
        if (!e.desc.empty() || e.hist)
            os << " #";
        if (!e.desc.empty())
            os << " " << e.desc;
        if (e.hist) {
            os << " [n=" << e.hist->totalSamples()
               << " uf=" << e.hist->underflow()
               << " of=" << e.hist->overflow() << "]";
        }
        os << "\n";
    }
}

double
StatGroup::lookup(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return e.value();
    }
    return std::numeric_limits<double>::quiet_NaN();
}

} // namespace memsec
