/**
 * @file
 * Memory transaction representation and the client callback interface.
 */

#ifndef MEMSEC_MEM_REQUEST_HH
#define MEMSEC_MEM_REQUEST_HH

#include <memory>
#include <string>

#include "sim/types.hh"

namespace memsec::mem {

/** Kind of transaction entering the controller. */
enum class ReqType : uint8_t
{
    Read,     ///< demand load (LLC miss)
    Write,    ///< writeback from the LLC
    Prefetch, ///< prefetcher-generated read
    Dummy,    ///< scheduler-inserted shaping access (never from a core)
};

/** The last ReqType, for the snapshot range check. */
constexpr ReqType
enumLast(ReqType)
{
    return ReqType::Dummy;
}

const char *reqTypeName(ReqType t);

/** Decoded physical location of one cache line. */
struct Decoded
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    unsigned row = 0;
    unsigned col = 0;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.channel, self.rank, self.bank, self.row, self.col);
    }
};

struct MemRequest;

/** Receiver of request completions (a core model or the LLC). */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** Called when req's data has fully returned / been accepted. */
    virtual void memResponse(const MemRequest &req) = 0;

    /**
     * Called when a prefetch hint was discarded by the controller
     * (side-queue overflow). The client must clear any tracking
     * state — no memResponse will ever arrive for this request.
     */
    virtual void memDropped(const MemRequest &req) { (void)req; }
};

/** One cache-line transaction flowing through the controller. */
struct MemRequest
{
    ReqId id = 0;
    DomainId domain = 0;
    ReqType type = ReqType::Read;
    Addr addr = 0;
    Decoded loc;

    Cycle arrival = 0;          ///< cycle enqueued at the controller
    Cycle firstCommand = kNoCycle; ///< cycle of first DRAM command
    Cycle completed = kNoCycle; ///< cycle data finished / write accepted
    /** Open-loop client issue stamp (kNoCycle for closed-loop
     *  requests). When set, per-domain latency histograms account
     *  from this cycle instead of `arrival`, so client-side queueing
     *  under overload is not hidden from the tail percentiles. */
    Cycle issued = kNoCycle;

    MemClient *client = nullptr; ///< completion sink (null for dummies)

    bool isRead() const
    {
        return type == ReqType::Read || type == ReqType::Prefetch ||
               type == ReqType::Dummy;
    }
    bool isDemand() const { return type == ReqType::Read; }

    std::string toString() const;
};

/**
 * Checkpoint walk of one owned request (a unique_ptr or shared_ptr).
 * The client pointer travels as a presence bit only: a load allocates
 * the request and rebinds a present client to `clientOf(*req)`, the
 * sink registered for its domain (pointer identity cannot cross a
 * process boundary).
 */
template <class Ptr, class Ar, class ClientOf>
void
ioRequest(Ptr &req, Ar &ar, const ClientOf &clientOf)
{
    if constexpr (Ar::loading)
        req = std::make_unique<MemRequest>();
    bool hasClient = req->client != nullptr;
    ar.io(req->id, req->domain, req->type, req->addr, req->loc,
          req->arrival, req->firstCommand, req->completed, req->issued,
          hasClient);
    if constexpr (Ar::loading) {
        if (hasClient)
            req->client = clientOf(*req);
    }
}

} // namespace memsec::mem

#endif // MEMSEC_MEM_REQUEST_HH
