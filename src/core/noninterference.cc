#include "core/noninterference.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace memsec::core {

void
VictimTimeline::recordService(Cycle arrival, Cycle completed)
{
    service.push_back({service.size(), arrival, completed});
}

std::optional<size_t>
firstServiceDivergence(const std::vector<ServiceEvent> &a,
                       const std::vector<ServiceEvent> &b)
{
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(a[i] == b[i]))
            return i;
    }
    return a.size() != b.size() ? std::optional(n) : std::nullopt;
}

AuditResult
compareTimelines(const VictimTimeline &a, const VictimTimeline &b)
{
    AuditResult res;

    // Progress skew is computed unconditionally — it is the paper's
    // Figure 4 visual — even when the service log already diverged.
    const size_t nprog = std::min(a.progress.size(), b.progress.size());
    for (size_t i = 0; i < nprog; ++i) {
        if (a.progress[i] == b.progress[i])
            continue;
        // Normalise by the larger checkpoint so the skew is symmetric:
        // compareTimelines(a, b) == compareTimelines(b, a).
        const double denom = std::max<double>(
            1.0, static_cast<double>(
                     std::max(a.progress[i], b.progress[i])));
        const double skew =
            100.0 *
            std::abs(static_cast<double>(a.progress[i]) -
                     static_cast<double>(b.progress[i])) /
            denom;
        res.maxProgressSkewPct = std::max(res.maxProgressSkewPct, skew);
        if (res.detail.empty()) {
            std::ostringstream po;
            po << "progress checkpoint " << i << " differs: "
               << a.progress[i] << " vs " << b.progress[i];
            res.detail = po.str();
        }
    }

    const auto svc = firstServiceDivergence(a.service, b.service);
    if (res.detail.empty() && svc) {
        const size_t i = *svc;
        std::ostringstream os;
        if (i < a.service.size() && i < b.service.size()) {
            os << "service event " << i << " differs: ("
               << a.service[i].arrival << "," << a.service[i].completed
               << ") vs (" << b.service[i].arrival << ","
               << b.service[i].completed << ")";
        } else {
            os << "service counts differ: " << a.service.size() << " vs "
               << b.service.size();
        }
        res.detail = os.str();
    }
    if (res.detail.empty() && a.progress.size() != b.progress.size()) {
        std::ostringstream os;
        os << "progress checkpoint counts differ: "
           << a.progress.size() << " vs " << b.progress.size();
        res.detail = os.str();
    }

    res.identical = res.detail.empty();
    return res;
}

} // namespace memsec::core
