/**
 * @file
 * Lightweight statistics package.
 *
 * Components own their statistics as members and register them with a
 * StatGroup so they can be dumped uniformly. Four kinds:
 *  - Counter:   monotonically increasing event count
 *  - Scalar:    arbitrary settable value
 *  - Average:   running mean (sample(v))
 *  - Histogram: fixed-width linear bins with underflow/overflow
 * plus Formula, a named lambda evaluated at dump time for derived
 * quantities (rates, ratios).
 */

#ifndef MEMSEC_STATS_STATS_HH
#define MEMSEC_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace memsec {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(uint64_t n = 1) { value_ += n; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.value_);
    }

  private:
    uint64_t value_ = 0;
};

/** Settable scalar statistic. */
class Scalar
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.value_);
    }

  private:
    double value_ = 0.0;
};

/** Running mean over sampled values. */
class Average
{
  public:
    void sample(double v);
    double mean() const;
    uint64_t count() const { return count_; }
    double total() const { return sum_; }
    double min() const;
    double max() const;
    void reset();

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.sum_, self.count_, self.min_, self.max_);
    }

  private:
    double sum_ = 0.0;
    uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Linear-binned histogram with underflow/overflow buckets. */
class Histogram
{
  public:
    /** Configure bins: [lo, lo+width), ... nbins of them. */
    void init(double lo, double binWidth, size_t nbins);

    void sample(double v, uint64_t weight = 1);

    uint64_t totalSamples() const { return samples_; }
    double mean() const;
    /** Value below which fraction p of samples fall, linearly
     *  interpolated within the crossing bin (samples are assumed
     *  uniform inside a bin). Returns +infinity when the requested
     *  mass lies in the overflow bucket — the histogram cannot bound
     *  such a value, and clamping it to the top bin edge would
     *  understate tail latencies. */
    double percentile(double p) const;
    const std::vector<uint64_t> &bins() const { return bins_; }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    double lo() const { return lo_; }
    double binWidth() const { return width_; }
    double total() const { return sum_; }
    /** Accumulate another histogram's mass; panics unless the bin
     *  layouts (lo, width, bin count) are identical. */
    void merge(const Histogram &other);
    void reset();

    /** Checkpoint walk: bin contents only; the bin layout comes from
     *  init(). */
    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.sized(self.bins_, "histogram bin count mismatch");
        ar.io(self.underflow_, self.overflow_, self.samples_, self.sum_);
    }

  private:
    double lo_ = 0.0;
    double width_ = 1.0;
    std::vector<uint64_t> bins_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t samples_ = 0;
    double sum_ = 0.0;
};

/**
 * A named collection of statistics for dumping. Holds non-owning
 * pointers; the registering component must outlive the group's use.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "stats");

    void add(const std::string &name, const Counter *c,
             const std::string &desc = "");
    void add(const std::string &name, const Scalar *s,
             const std::string &desc = "");
    void add(const std::string &name, const Average *a,
             const std::string &desc = "");
    void add(const std::string &name, const Histogram *h,
             const std::string &desc = "");
    /** Derived quantity evaluated at dump time. */
    void addFormula(const std::string &name, std::function<double()> fn,
                    const std::string &desc = "");

    /** Append another group's entries under "prefix.". */
    void adopt(const std::string &prefix, const StatGroup &other);

    /** Dump as "name value # desc" lines: name left-aligned, value
     *  right-aligned and lossless (integral values keep every digit);
     *  histogram entries append their sample/underflow/overflow
     *  counts so clipped mass is visible. */
    void dump(std::ostream &os) const;

    /** Look up a dumped value by name (formulas evaluated); NaN if absent. */
    double lookup(const std::string &name) const;

    const std::string &name() const { return name_; }

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::function<double()> value;
        const Histogram *hist; // non-null for histogram entries
    };

    std::string name_;
    std::vector<Entry> entries_;
};

} // namespace memsec

#endif // MEMSEC_STATS_STATS_HH
