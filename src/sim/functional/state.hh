/**
 * @file
 * Architectural state of the RPU: data memories and register files.
 *
 * The host-facing accessors model the paper's "launch code", which
 * converts host data structures into scratchpad-based data structures
 * before a kernel runs (paper section V). In the RPU the scratchpads
 * and register files persist across kernels; reset() lets a host keep
 * one state resident and return it to its freshly constructed value
 * at the cost of what the last launch wrote, not of its 4.5 MiB.
 */

#ifndef RPU_SIM_FUNCTIONAL_STATE_HH
#define RPU_SIM_FUNCTIONAL_STATE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "sim/arch_config.hh"

namespace rpu {

/** All architecturally visible RPU state. */
class ArchState
{
  public:
    /** Allocate memories; @p vdm_bytes defaults to the 4 MiB design. */
    explicit ArchState(size_t vdm_bytes = arch::kVdmDefaultBytes);

    /**
     * Return to exactly the state ArchState(@p vdm_bytes) constructs,
     * whatever ran since: zero the hull of VDM words written through
     * writeVdm / loadVdm, the SDM prefix written through writeSdm, the
     * vector registers handed out by the mutable vreg() accessor and
     * the scalar / address / modulus register files (64 entries each,
     * filled outright), then size the VDM to vdm_bytes / 16 words so
     * its out-of-bounds faults match a fresh state. Every other word
     * is still zero from construction or the previous reset.
     */
    void reset(size_t vdm_bytes = arch::kVdmDefaultBytes);

    // -- Vector data memory (word addressed, 128b words) ---------------

    size_t vdmWords() const { return vdm_.size(); }
    u128 readVdm(uint64_t word_addr) const;
    void writeVdm(uint64_t word_addr, u128 value);

    /** Bulk host copy-in starting at @p word_addr. */
    void loadVdm(uint64_t word_addr, const std::vector<u128> &data);

    /** Bulk host copy-out of @p count words. */
    std::vector<u128> dumpVdm(uint64_t word_addr, size_t count) const;

    // -- Scalar data memory ---------------------------------------------

    u128 readSdm(uint64_t word_addr) const;
    void writeSdm(uint64_t word_addr, u128 value);

    // -- Register files --------------------------------------------------

    /** One full 512-lane vector register. */
    using Vreg = std::array<u128, arch::kVectorLength>;

    const Vreg &vreg(unsigned idx) const { return vrf_.at(idx); }
    /** Mutable access marks the register dirty for reset(). */
    Vreg &
    vreg(unsigned idx)
    {
        Vreg &reg = vrf_.at(idx);
        vreg_dirty_ |= uint64_t(1) << idx;
        return reg;
    }

    u128 sreg(unsigned idx) const { return srf_.at(idx); }
    void setSreg(unsigned idx, u128 v) { srf_.at(idx) = v; }

    uint64_t areg(unsigned idx) const { return arf_.at(idx); }
    void setAreg(unsigned idx, uint64_t v) { arf_.at(idx) = v; }

    u128 mreg(unsigned idx) const { return mrf_.at(idx); }
    void setMreg(unsigned idx, u128 v) { mrf_.at(idx) = v; }

  private:
    std::vector<u128> vdm_;
    std::vector<u128> sdm_;
    std::vector<Vreg> vrf_;
    std::vector<u128> srf_;
    std::vector<uint64_t> arf_;
    std::vector<u128> mrf_;

    // What reset() must zero. Over-approximating is always safe.
    /// [vdm_dirty_lo_, vdm_dirty_hi_): hull of VDM words written.
    size_t vdm_dirty_lo_ = SIZE_MAX;
    size_t vdm_dirty_hi_ = 0;
    /// SDM words [0, sdm_dirty_words_) may be nonzero.
    size_t sdm_dirty_words_ = 0;
    /// Bit i set: vector register i was handed out mutably.
    uint64_t vreg_dirty_ = 0;
    static_assert(arch::kNumVregs <= 64, "vreg_dirty_ is a 64-bit mask");
};

} // namespace rpu

#endif // RPU_SIM_FUNCTIONAL_STATE_HH
