#include "mem/address_map.hh"

#include <algorithm>
#include <set>

#include "util/logging.hh"

namespace memsec::mem {

const char *
partitionName(Partition p)
{
    switch (p) {
      case Partition::None: return "none";
      case Partition::Channel: return "channel";
      case Partition::Rank: return "rank";
      case Partition::Bank: return "bank";
    }
    return "???";
}

const char *
interleaveName(Interleave i)
{
    return i == Interleave::OpenPage ? "open-page" : "close-page";
}

std::string
AddressMap::fitError(const dram::Geometry &geo, Partition part,
                     unsigned numDomains)
{
    if (part == Partition::Channel && numDomains > geo.channels)
        return detail::format("channel partitioning needs >= 1 channel "
                              "per domain ({} domains, {} channels)",
                              numDomains, geo.channels);
    if (part != Partition::Rank && part != Partition::Bank)
        return "";
    // With several channels, domains are first spread over the
    // channels (the paper's 32-core / 4-channel target system: 8
    // domains per channel, one rank each), then partitioned within
    // their channel.
    const char *level = part == Partition::Rank ? "rank" : "bank";
    if (numDomains % geo.channels != 0)
        return detail::format("{} partitioning over {} channels needs a "
                              "domain count divisible by the channel "
                              "count (got {})",
                              level, geo.channels, numDomains);
    const unsigned have =
        part == Partition::Rank ? geo.ranksPerChannel : geo.banksPerRank;
    if (numDomains / geo.channels > have)
        return detail::format("{} partitioning needs >= 1 {} per domain "
                              "({} domains/channel, {} {}s)",
                              level, level, numDomains / geo.channels,
                              have, level);
    return "";
}

AddressMap::AddressMap(const dram::Geometry &geo, Partition part,
                       Interleave style, unsigned numDomains)
    : geo_(geo), part_(part), style_(style), numDomains_(numDomains)
{
    geo_.validate();
    fatal_if(numDomains == 0, "address map needs at least one domain");
    const std::string unfit = fitError(geo, part, numDomains);
    fatal_if(!unfit.empty(), "{}", unfit);

    domainRanks_.resize(numDomains);
    domainBanks_.resize(numDomains);
    domainChannel_.assign(numDomains, 0);

    const unsigned R = geo.ranksPerChannel;
    const unsigned B = geo.banksPerRank;

    auto allRanks = [&] {
        std::vector<unsigned> v(R);
        for (unsigned r = 0; r < R; ++r)
            v[r] = r;
        return v;
    };
    auto allBanks = [&] {
        std::vector<unsigned> v(B);
        for (unsigned b = 0; b < B; ++b)
            v[b] = b;
        return v;
    };

    switch (part) {
      case Partition::Channel:
        for (DomainId d = 0; d < numDomains; ++d) {
            domainChannel_[d] = d % geo.channels;
            domainRanks_[d] = allRanks();
            domainBanks_[d] = allBanks();
        }
        break;
      case Partition::Rank: {
        const unsigned perChannel = numDomains / geo.channels;
        for (DomainId d = 0; d < numDomains; ++d) {
            domainChannel_[d] = d % geo.channels;
            const unsigned dc = d / geo.channels;
            for (unsigned r = dc; r < R; r += perChannel)
                domainRanks_[d].push_back(r);
            domainBanks_[d] = allBanks();
        }
        break;
      }
      case Partition::Bank: {
        const unsigned perChannel = numDomains / geo.channels;
        for (DomainId d = 0; d < numDomains; ++d) {
            domainChannel_[d] = d % geo.channels;
            const unsigned dc = d / geo.channels;
            domainRanks_[d] = allRanks();
            for (unsigned b = dc; b < B; b += perChannel)
                domainBanks_[d].push_back(b);
        }
        break;
      }
      case Partition::None:
        for (DomainId d = 0; d < numDomains; ++d) {
            domainChannel_[d] = d % geo.channels;
            domainRanks_[d] = allRanks();
            domainBanks_[d] = allBanks();
        }
        break;
    }
}

const std::vector<unsigned> &
AddressMap::ranksOf(DomainId domain) const
{
    return domainRanks_.at(domain);
}

const std::vector<unsigned> &
AddressMap::banksOf(DomainId domain) const
{
    return domainBanks_.at(domain);
}

unsigned
AddressMap::channelOf(DomainId domain) const
{
    return domainChannel_.at(domain);
}

uint64_t
AddressMap::domainLineCapacity() const
{
    // Sized from domain 0; all domains get equal allotments.
    const uint64_t slots = static_cast<uint64_t>(domainRanks_[0].size()) *
                           domainBanks_[0].size();
    return slots * geo_.rowsPerBank * geo_.colsPerRow;
}

Decoded
AddressMap::decode(DomainId domain, Addr addr) const
{
    const auto &ranks = domainRanks_.at(domain);
    const auto &banks = domainBanks_.at(domain);
    const uint64_t nslots =
        static_cast<uint64_t>(ranks.size()) * banks.size();
    const uint64_t cols = geo_.colsPerRow;
    const uint64_t rows = geo_.rowsPerBank;

    uint64_t line = (addr / kLineBytes) % (nslots * rows * cols);

    uint64_t col, slot, row;
    if (style_ == Interleave::OpenPage) {
        col = line % cols;
        slot = (line / cols) % nslots;
        row = line / (cols * nslots);
    } else {
        slot = line % nslots;
        col = (line / nslots) % cols;
        row = line / (nslots * cols);
    }

    // Under shared (non-partitioned) policies, offset each domain's
    // rows so distinct domains never alias onto the same physical
    // rows — the OS would never map two security domains to the same
    // frames.
    if (part_ == Partition::None && numDomains_ > 1) {
        const unsigned perChannel =
            (numDomains_ + geo_.channels - 1) / geo_.channels;
        const unsigned dc = domain / geo_.channels;
        row = (row + dc * (rows / std::max(1u, perChannel))) % rows;
    }

    Decoded out;
    out.channel = domainChannel_.at(domain);
    // Order slots bank-fastest: consecutive lines spread over banks,
    // which keeps bank-group rotation (triple alternation) and
    // bank-level parallelism fed by sequential streams.
    out.bank = banks[slot % banks.size()];
    out.rank = ranks[(slot / banks.size()) % ranks.size()];
    out.row = static_cast<unsigned>(row);
    out.col = static_cast<unsigned>(col);
    return out;
}

} // namespace memsec::mem
