/**
 * @file
 * Per-tenant serving session: one tenant's complete cryptographic
 * world, plus the accounting the server attributes to it.
 *
 * Every tenant owns a full CkksContext — its own parameter set,
 * deterministic modulus chain, secret key, relinearisation key, and
 * evaluator state — seeded *derivably from the session id*, so a
 * multi-tenant run is reproducible end to end: two servers built
 * with the same tenant ids produce bit-identical keys, ciphertexts,
 * and responses, regardless of how requests interleave. Per-request
 * randomness is likewise derived from (session seed, request seq),
 * which is what makes the serving bench's bit-identity check against
 * per-tenant *serial* execution meaningful even when the device runs
 * a worker pool: no draw depends on service order.
 *
 * runSerial() is that serial reference — the exact per-request
 * pipeline, executed alone. The server's uncoalesced path *is* this
 * function, so "coalesced equals serial" is a real statement about
 * the cross-tenant batching machinery, not about two copies of the
 * same code.
 *
 * Sessions with equal kernelClass() strings (same ring dimension and
 * same modulus chain — chains are deterministic per parameter set,
 * so equal CkksParams imply an equal class) issue kernel-compatible
 * launches, which is the server's coalescing criterion.
 */

#ifndef RPU_SERVE_SESSION_HH
#define RPU_SERVE_SESSION_HH

#include <atomic>
#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rlwe/ckks.hh"
#include "serve/queue.hh"

namespace rpu {

class RpuDevice;
struct DeviceStats;

namespace serve {

/** Everything needed to open a tenant's session. */
struct TenantConfig
{
    uint64_t id = 0;    ///< stable tenant identity; seeds everything
    CkksParams params;  ///< the tenant's own parameter set
    unsigned relinDigitBits = 30; ///< gadget base for its relin key
};

/**
 * Per-tenant ledger, layered on DeviceStats deltas: the server
 * snapshots the device around each dispatch chunk and splits the
 * delta evenly across the chunk's requests. Launch/cycle shares are
 * fractional (a 3-launch chunk over 8 requests does not divide
 * evenly); the semantic tower-granular counters are exact per
 * request by construction when every request in a chunk has the
 * same shape, which the server's chunking guarantees. Exact with one
 * dispatcher; approximate (deltas may interleave) with several.
 */
struct TenantAccounting
{
    uint64_t accepted = 0;
    uint64_t rejectedFull = 0;
    uint64_t rejectedShutdown = 0;
    uint64_t rejectedInvalid = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t coalesced = 0; ///< completed in a chunk with >1 requests

    double launchShare = 0; ///< device launches attributed
    double cycleShare = 0;  ///< modelled device cycles attributed
    uint64_t pointwiseMuls = 0;
    uint64_t forwardTransforms = 0;
    uint64_t inverseTransforms = 0;
};

/** See the file comment. */
class Session
{
  public:
    /** Builds the context, keys, and kernel class; attaches
     *  @p device (may be null for host-only execution). */
    Session(const TenantConfig &cfg, std::shared_ptr<RpuDevice> device);

    uint64_t id() const { return cfg_.id; }
    const TenantConfig &config() const { return cfg_; }
    const CkksContext &ctx() const { return *ctx_; }
    const CkksSecretKey &secretKey() const { return sk_; }
    const RelinKey &relinKey() const { return rk_; }

    /** Master seed for tenant @p id (splitmix64 of the id, so
     *  adjacent ids get unrelated streams). */
    static uint64_t deriveSeed(uint64_t id);

    /** Fresh derived stream for request @p seq of this session —
     *  independent of every other (session, seq) pair and of
     *  service order. */
    Rng requestRng(uint64_t seq) const;

    /** Next per-tenant sequence number (assigned at submit). */
    uint64_t nextSeq() { return seq_.fetch_add(1); }

    /**
     * Launch-compatibility fingerprint: sessions with equal strings
     * share ring dimension and modulus chain, so their launches can
     * merge into one batched kernel (the server's coalescing key).
     */
    const std::string &kernelClass() const { return kernel_class_; }

    /**
     * The per-tenant serial reference: run one request's full
     * pipeline alone — encrypt with requestRng(seq), op, rescale,
     * decrypt — and return the decrypted slots. The server's
     * uncoalesced execution path calls exactly this.
     */
    std::vector<std::complex<double>>
    runSerial(RequestOp op, const std::vector<std::complex<double>> &a,
              const std::vector<std::complex<double>> &b,
              uint64_t seq) const;

    /**
     * runSerial against @p ctx instead of the session's own context.
     * @p ctx must share this session's parameter set (same
     * deterministic modulus chain) — the keys, encoding, and request
     * randomness are all the session's, so the results are
     * bit-identical to runSerial; only the attached device changes.
     * This is how the server routes uncoalesced requests to a
     * non-default device of a topology: one execution context per
     * (kernel class, device), every tenant's keys usable with any of
     * them.
     */
    std::vector<std::complex<double>>
    runSerialWith(const CkksContext &ctx, RequestOp op,
                  const std::vector<std::complex<double>> &a,
                  const std::vector<std::complex<double>> &b,
                  uint64_t seq) const;

    // -- Accounting (called by the server's dispatchers) ----------------

    void noteSubmission(SubmitStatus s);
    void noteFailed();

    /** Attribute an even share of @p chunkDelta to this tenant for
     *  one completed request in a @p chunkRequests-request chunk. */
    void noteCompleted(size_t chunkRequests,
                       const DeviceStats &chunkDelta);

    TenantAccounting accounting() const;

  private:
    TenantConfig cfg_;
    uint64_t seed_ = 0;
    std::unique_ptr<CkksContext> ctx_;
    CkksSecretKey sk_;
    RelinKey rk_;
    std::string kernel_class_;
    std::atomic<uint64_t> seq_{0};

    mutable std::mutex acct_mutex_;
    TenantAccounting acct_;
};

} // namespace serve
} // namespace rpu

#endif // RPU_SERVE_SESSION_HH
