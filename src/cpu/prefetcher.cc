#include "cpu/prefetcher.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cpu {

SandboxPrefetcher::SandboxPrefetcher(const Params &params)
    : params_(params)
{
    fatal_if(params_.candidateOffsets.empty(),
             "prefetcher needs candidate offsets");
    scores_.assign(params_.candidateOffsets.size(), 0);
    recentMisses_.assign(64, ~0ull);
}

std::vector<Addr>
SandboxPrefetcher::onMiss(Addr addr)
{
    const Addr line = addr / kLineBytes;

    // Sandbox evaluation: would candidate offset o have predicted
    // this miss from one of the recent misses?
    for (size_t c = 0; c < params_.candidateOffsets.size(); ++c) {
        const int off = params_.candidateOffsets[c];
        const Addr predictedFrom =
            line - static_cast<Addr>(static_cast<int64_t>(off));
        for (Addr prev : recentMisses_) {
            if (prev == predictedFrom) {
                ++scores_[c];
                break;
            }
        }
    }
    recentMisses_[recentIdx_++ % recentMisses_.size()] = line;

    if (++evalCount_ >= params_.evalPeriod) {
        evalCount_ = 0;
        std::vector<std::pair<unsigned, int>> ranked;
        for (size_t c = 0; c < scores_.size(); ++c) {
            if (scores_[c] >= params_.scoreThreshold)
                ranked.emplace_back(scores_[c],
                                    params_.candidateOffsets[c]);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        active_.clear();
        for (size_t i = 0;
             i < ranked.size() && i < params_.degree; ++i)
            active_.push_back(ranked[i].second);
        std::fill(scores_.begin(), scores_.end(), 0u);
    }

    std::vector<Addr> out;
    out.reserve(active_.size());
    for (int off : active_) {
        const int64_t target =
            static_cast<int64_t>(line) + off;
        if (target < 0)
            continue;
        out.push_back(static_cast<Addr>(target) * kLineBytes);
        issued_.inc();
    }
    return out;
}

template <class Self, class Ar>
void
SandboxPrefetcher::io(Self &self, Ar &ar)
{
    ar.section("prefetcher");
    ar.sized(self.scores_, "prefetcher score count mismatch");
    ar.io(self.recentMisses_, self.recentIdx_, self.evalCount_);
    ar.seq(self.active_, [&](auto &offset) { ar.io(as<int64_t>(offset)); });
    ar.io(self.issued_);
}

void
SandboxPrefetcher::saveState(Serializer &s) const
{
    io(*this, s);
}

void
SandboxPrefetcher::restoreState(Deserializer &d)
{
    io(*this, d);
}

} // namespace memsec::cpu
