/**
 * @file
 * Physical address decoding with OS-style spatial partitioning.
 *
 * The paper's spatial-partitioning levels (Section 4) are realised
 * here as page-colouring policies: the map confines each security
 * domain's lines to its assigned channel / rank / bank set, so the
 * same workload trace can be replayed under any partitioning without
 * regenerating it.
 *
 * Two interleaving styles model the "page mapping policies" whose
 * throughput impact the paper calls out:
 *  - OpenPage:  consecutive lines fill a row before moving on
 *               (maximises row-buffer hits for the baseline);
 *  - ClosePage: consecutive lines stripe across banks (maximises
 *               bank-level parallelism, minimises same-bank
 *               back-to-back hazards for FS at low thread counts).
 */

#ifndef MEMSEC_MEM_ADDRESS_MAP_HH
#define MEMSEC_MEM_ADDRESS_MAP_HH

#include <string>
#include <vector>

#include "dram/timing.hh"
#include "mem/request.hh"
#include "sim/types.hh"

namespace memsec::mem {

/** Spatial partitioning level (Section 4.1 of the paper). */
enum class Partition : uint8_t
{
    None,    ///< all domains share all banks
    Channel, ///< each domain owns one or more channels
    Rank,    ///< each domain owns one or more ranks
    Bank,    ///< each domain owns a disjoint set of banks
};

const char *partitionName(Partition p);

/** Line interleaving style within a domain's allotted resources. */
enum class Interleave : uint8_t
{
    OpenPage,  ///< row-major: line, col, bank, rank, row
    ClosePage, ///< bank-stripe: line, bank, rank, col, row
};

const char *interleaveName(Interleave i);

/**
 * Decodes (domain, address) to a physical DRAM location under a given
 * partitioning. Addresses are cache-line granular internally.
 */
class AddressMap
{
  public:
    /** Fatal unless fitError() accepts the arguments. */
    AddressMap(const dram::Geometry &geo, Partition part,
               Interleave style, unsigned numDomains);

    /** Why `numDomains` domains cannot be partitioned by `part` over
     *  `geo` (a validated geometry), or "" if they can. */
    static std::string fitError(const dram::Geometry &geo, Partition part,
                                unsigned numDomains);

    /** Decode a byte address issued by `domain`. */
    Decoded decode(DomainId domain, Addr addr) const;

    /** Ranks (within the domain's channel) usable by `domain`. */
    const std::vector<unsigned> &ranksOf(DomainId domain) const;

    /** Banks (per rank) usable by `domain`. */
    const std::vector<unsigned> &banksOf(DomainId domain) const;

    /** Channel owning `domain`: domain d lives on channel d mod the
     *  channel count, whatever the partitioning. */
    unsigned channelOf(DomainId domain) const;

    Partition partition() const { return part_; }
    Interleave interleave() const { return style_; }
    unsigned numDomains() const { return numDomains_; }
    const dram::Geometry &geometry() const { return geo_; }

    /**
     * Capacity (in lines) addressable by one domain; decode() wraps
     * addresses beyond it so any trace is valid under any partition.
     */
    uint64_t domainLineCapacity() const;

  private:
    dram::Geometry geo_;
    Partition part_;
    Interleave style_;
    unsigned numDomains_ = 0;

    // Per-domain resource sets, precomputed at construction.
    std::vector<std::vector<unsigned>> domainRanks_;
    std::vector<std::vector<unsigned>> domainBanks_;
    std::vector<unsigned> domainChannel_;
};

} // namespace memsec::mem

#endif // MEMSEC_MEM_ADDRESS_MAP_HH
