#include "serve/session.hh"

#include "common/logging.hh"
#include "rpu/device.hh"

namespace rpu {
namespace serve {

namespace {

/** splitmix64 finaliser (Steele et al.) — the standard one-shot
 *  mixer for deriving unrelated streams from structured inputs. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
Session::deriveSeed(uint64_t id)
{
    // Domain-separated from plain mix64(id) so a tenant id that
    // happens to equal some other subsystem's seed input still gets
    // an unrelated stream.
    return mix64(id ^ 0x52505553455256ull); // "RPUSERV"
}

Session::Session(const TenantConfig &cfg,
                 std::shared_ptr<RpuDevice> device)
    : cfg_(cfg), seed_(deriveSeed(cfg.id)),
      ctx_(std::make_unique<CkksContext>(cfg.params, seed_))
{
    if (device)
        ctx_->attachDevice(std::move(device));

    // Key material comes off the context's own seed-derived stream,
    // in a fixed order, before any request runs: two sessions with
    // the same (id, params) are bit-identical worlds.
    sk_ = ctx_->keygen();
    rk_ = ctx_->makeRelinKey(sk_, cfg.relinDigitBits);

    // nttPrimes is deterministic per (towerBits, n, towers), so the
    // class string doubles as a parameter-set fingerprint: equal
    // CkksParams imply an equal class.
    kernel_class_ = "n" + std::to_string(cfg.params.n) + ":q";
    for (u128 q : ctx_->basis().primes()) {
        kernel_class_ += std::to_string(uint64_t(q >> 64)) + "_" +
                         std::to_string(uint64_t(q)) + ",";
    }
}

Rng
Session::requestRng(uint64_t seq) const
{
    return Rng(mix64(seed_ ^ mix64(seq + 1)));
}

std::vector<std::complex<double>>
Session::runSerial(RequestOp op,
                   const std::vector<std::complex<double>> &a,
                   const std::vector<std::complex<double>> &b,
                   uint64_t seq) const
{
    return runSerialWith(*ctx_, op, a, b, seq);
}

std::vector<std::complex<double>>
Session::runSerialWith(const CkksContext &ctx, RequestOp op,
                       const std::vector<std::complex<double>> &a,
                       const std::vector<std::complex<double>> &b,
                       uint64_t seq) const
{
    Rng rng = requestRng(seq);

    CkksCiphertext ct = ctx.encrypt(sk_, a, rng);
    CkksCiphertext prod;
    if (op == RequestOp::MulPlainRescale) {
        prod = ctx.mulPlain(ct, ctx.encodePlain(b, ct.towers()));
    } else {
        // Both operand ciphertexts draw from the same request
        // stream, in submission order — deterministic either way.
        const CkksCiphertext ct_b = ctx.encrypt(sk_, b, rng);
        prod = ctx.mulCt(ct, ct_b, rk_);
    }
    return ctx.decrypt(sk_, ctx.rescale(prod));
}

void
Session::noteSubmission(SubmitStatus s)
{
    std::lock_guard<std::mutex> lock(acct_mutex_);
    switch (s) {
      case SubmitStatus::Accepted:
        ++acct_.accepted;
        break;
      case SubmitStatus::RejectedFull:
        ++acct_.rejectedFull;
        break;
      case SubmitStatus::RejectedShutdown:
        ++acct_.rejectedShutdown;
        break;
      case SubmitStatus::RejectedInvalid:
        ++acct_.rejectedInvalid;
        break;
    }
}

void
Session::noteFailed()
{
    std::lock_guard<std::mutex> lock(acct_mutex_);
    ++acct_.failed;
}

void
Session::noteCompleted(size_t chunkRequests,
                       const DeviceStats &chunkDelta)
{
    rpu_assert(chunkRequests >= 1, "empty chunk");
    std::lock_guard<std::mutex> lock(acct_mutex_);
    ++acct_.completed;
    if (chunkRequests > 1)
        ++acct_.coalesced;
    const double share = 1.0 / double(chunkRequests);
    acct_.launchShare += double(chunkDelta.launches) * share;
    acct_.cycleShare += double(chunkDelta.cycleTotal()) * share;
    // The semantic tower-granular counters divide exactly: a chunk
    // holds same-op, same-class requests, so every request performed
    // the same transform/pointwise work.
    acct_.pointwiseMuls += chunkDelta.pointwiseMuls / chunkRequests;
    acct_.forwardTransforms +=
        chunkDelta.forwardTransforms / chunkRequests;
    acct_.inverseTransforms +=
        chunkDelta.inverseTransforms / chunkRequests;
}

TenantAccounting
Session::accounting() const
{
    std::lock_guard<std::mutex> lock(acct_mutex_);
    return acct_;
}

} // namespace serve
} // namespace rpu
