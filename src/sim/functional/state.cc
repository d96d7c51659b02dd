#include "sim/functional/state.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rpu {

namespace {

size_t
vdmWordsFor(size_t vdm_bytes)
{
    rpu_assert(vdm_bytes % arch::kWordBytes == 0 &&
               vdm_bytes <= arch::kVdmMaxBytes,
               "invalid VDM size %zu", vdm_bytes);
    return vdm_bytes / arch::kWordBytes;
}

} // namespace

ArchState::ArchState(size_t vdm_bytes)
    : vdm_(vdmWordsFor(vdm_bytes), 0),
      sdm_(arch::kSdmWords, 0),
      vrf_(arch::kNumVregs),
      srf_(arch::kNumSregs, 0),
      arf_(arch::kNumAregs, 0),
      mrf_(arch::kNumMregs, 0)
{
    for (auto &reg : vrf_)
        reg.fill(0);
}

void
ArchState::reset(size_t vdm_bytes)
{
    const size_t words = vdmWordsFor(vdm_bytes);
    if (vdm_dirty_lo_ < vdm_dirty_hi_)
        std::fill(vdm_.begin() + vdm_dirty_lo_,
                  vdm_.begin() + vdm_dirty_hi_, u128(0));
    // Shrinking keeps the capacity; growing appends zeroed words.
    vdm_.resize(words, 0);
    std::fill_n(sdm_.begin(), sdm_dirty_words_, u128(0));
    for (unsigned i = 0; i < arch::kNumVregs; ++i) {
        if (vreg_dirty_ >> i & 1)
            vrf_[i].fill(0);
    }
    std::fill(srf_.begin(), srf_.end(), u128(0));
    std::fill(arf_.begin(), arf_.end(), uint64_t(0));
    std::fill(mrf_.begin(), mrf_.end(), u128(0));

    vdm_dirty_lo_ = SIZE_MAX;
    vdm_dirty_hi_ = 0;
    sdm_dirty_words_ = 0;
    vreg_dirty_ = 0;
}

u128
ArchState::readVdm(uint64_t word_addr) const
{
    if (word_addr >= vdm_.size())
        rpu_fatal("VDM read out of bounds: word %llu of %zu",
                  (unsigned long long)word_addr, vdm_.size());
    return vdm_[word_addr];
}

void
ArchState::writeVdm(uint64_t word_addr, u128 value)
{
    if (word_addr >= vdm_.size())
        rpu_fatal("VDM write out of bounds: word %llu of %zu",
                  (unsigned long long)word_addr, vdm_.size());
    vdm_dirty_lo_ = std::min<size_t>(vdm_dirty_lo_, word_addr);
    vdm_dirty_hi_ = std::max<size_t>(vdm_dirty_hi_, word_addr + 1);
    vdm_[word_addr] = value;
}

void
ArchState::loadVdm(uint64_t word_addr, const std::vector<u128> &data)
{
    // Written so the bound cannot wrap for a huge word_addr.
    if (data.size() > vdm_.size() || word_addr > vdm_.size() - data.size())
        rpu_fatal("VDM bulk load out of bounds");
    if (data.empty())
        return;
    vdm_dirty_lo_ = std::min<size_t>(vdm_dirty_lo_, word_addr);
    vdm_dirty_hi_ = std::max<size_t>(vdm_dirty_hi_, word_addr + data.size());
    for (size_t i = 0; i < data.size(); ++i)
        vdm_[word_addr + i] = data[i];
}

std::vector<u128>
ArchState::dumpVdm(uint64_t word_addr, size_t count) const
{
    if (count > vdm_.size() || word_addr > vdm_.size() - count)
        rpu_fatal("VDM bulk dump out of bounds");
    return {vdm_.begin() + word_addr, vdm_.begin() + word_addr + count};
}

u128
ArchState::readSdm(uint64_t word_addr) const
{
    if (word_addr >= sdm_.size())
        rpu_fatal("SDM read out of bounds: word %llu",
                  (unsigned long long)word_addr);
    return sdm_[word_addr];
}

void
ArchState::writeSdm(uint64_t word_addr, u128 value)
{
    if (word_addr >= sdm_.size())
        rpu_fatal("SDM write out of bounds: word %llu",
                  (unsigned long long)word_addr);
    sdm_dirty_words_ = std::max<size_t>(sdm_dirty_words_, word_addr + 1);
    sdm_[word_addr] = value;
}

} // namespace rpu
