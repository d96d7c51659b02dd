/**
 * @file
 * Functional simulator tests: exact semantics of every B512
 * instruction, all four addressing modes, destination aliasing,
 * bounds faulting, and resident-state reuse (ArchState::reset).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "isa/assembler.hh"
#include "modmath/primegen.hh"
#include "rpu/device.hh"
#include "sim/functional/executor.hh"

namespace rpu {
namespace {

constexpr unsigned VL = arch::kVectorLength;

class FunctionalSim : public testing::Test
{
  protected:
    FunctionalSim() : state(arch::kVdmDefaultBytes), sim(state)
    {
        // A small NTT prime keeps arithmetic checkable by hand.
        q = nttPrime(60, 1024);
        state.setMreg(1, q);
        state.setAreg(0, 0);
        for (unsigned i = 0; i < 4096; ++i)
            state.writeVdm(i, u128(i) % q);
    }

    ArchState state;
    FunctionalSimulator sim;
    u128 q;
};

TEST_F(FunctionalSim, VloadContiguous)
{
    sim.step(Instruction::vload(2, 0, 100));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(2)[i], u128(100 + i));
}

TEST_F(FunctionalSim, VloadStrided)
{
    sim.step(Instruction::vload(2, 0, 0, AddrMode::STRIDED, 2));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(2)[i], u128(4 * i));
}

TEST_F(FunctionalSim, VloadStridedSkip)
{
    // Runs of 4, skipping 4: lanes 0..3 -> words 0..3, lanes 4..7 ->
    // words 8..11, ...
    sim.step(Instruction::vload(2, 0, 0, AddrMode::STRIDED_SKIP, 2));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(2)[i], u128((i / 4) * 8 + i % 4));
}

TEST_F(FunctionalSim, VloadRepeated)
{
    // Each word replicated 8 times.
    sim.step(Instruction::vload(2, 0, 0, AddrMode::REPEATED, 3));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(2)[i], u128(i / 8));
}

TEST_F(FunctionalSim, VloadUsesArfBase)
{
    state.setAreg(5, 1000);
    sim.step(Instruction::vload(2, 5, 24));
    EXPECT_EQ(state.vreg(2)[0], u128(1024));
}

TEST_F(FunctionalSim, VstoreContiguousAndStrided)
{
    sim.step(Instruction::vload(2, 0, 0));
    sim.step(Instruction::vstore(2, 0, 2048));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.readVdm(2048 + i), u128(i));

    sim.step(Instruction::vstore(2, 0, 3000, AddrMode::STRIDED, 1));
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.readVdm(3000 + 2 * i), u128(i));
}

TEST_F(FunctionalSim, RepeatedStoreFaults)
{
    sim.step(Instruction::vload(2, 0, 0));
    EXPECT_EXIT(sim.step(Instruction::vstore(2, 0, 0,
                                             AddrMode::REPEATED, 1)),
                testing::ExitedWithCode(1), "REPEATED");
}

TEST_F(FunctionalSim, VdmOutOfBoundsFaults)
{
    state.setAreg(7, state.vdmWords());
    EXPECT_EXIT(sim.step(Instruction::vload(2, 7, 0)),
                testing::ExitedWithCode(1), "out of bounds");
}

TEST_F(FunctionalSim, ScalarLoads)
{
    state.writeSdm(10, 777);
    state.writeSdm(11, 888);
    state.writeSdm(12, 999);
    sim.step(Instruction::sload(3, 10));
    sim.step(Instruction::mload(4, 11));
    sim.step(Instruction::aload(5, 12));
    EXPECT_EQ(state.sreg(3), u128(777));
    EXPECT_EQ(state.mreg(4), u128(888));
    EXPECT_EQ(state.areg(5), 999u);
}

TEST_F(FunctionalSim, Broadcast)
{
    state.writeSdm(20, 4242);
    state.setAreg(3, 16);
    sim.step(Instruction::vbcast(6, 3, 4)); // SDM[16 + 4]
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.vreg(6)[i], u128(4242));
}

TEST_F(FunctionalSim, VectorVectorArithmetic)
{
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::vv(Opcode::VADDMOD, 3, 1, 2, 1));
    sim.step(Instruction::vv(Opcode::VSUBMOD, 4, 2, 1, 1));
    sim.step(Instruction::vv(Opcode::VMULMOD, 5, 1, 2, 1));
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i) {
        EXPECT_EQ(state.vreg(3)[i], mod.add(i, 512 + i));
        EXPECT_EQ(state.vreg(4)[i], u128(512));
        EXPECT_EQ(state.vreg(5)[i], mod.mul(i, 512 + i));
    }
}

TEST_F(FunctionalSim, VectorScalarArithmetic)
{
    state.setSreg(9, 7);
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vs_(Opcode::VSADDMOD, 2, 1, 9, 1));
    sim.step(Instruction::vs_(Opcode::VSSUBMOD, 3, 1, 9, 1));
    sim.step(Instruction::vs_(Opcode::VSMULMOD, 4, 1, 9, 1));
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i) {
        EXPECT_EQ(state.vreg(2)[i], mod.add(i, 7));
        EXPECT_EQ(state.vreg(3)[i], mod.sub(i, 7));
        EXPECT_EQ(state.vreg(4)[i], mod.mul(i, 7));
    }
}

TEST_F(FunctionalSim, ButterflySemantics)
{
    sim.step(Instruction::vload(1, 0, 0));    // a
    sim.step(Instruction::vload(2, 0, 512));  // b
    sim.step(Instruction::vload(3, 0, 1024)); // w
    sim.step(Instruction::butterfly(4, 5, 1, 2, 3, 1));
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i) {
        const u128 t = mod.mul(u128(1024 + i), u128(512 + i));
        EXPECT_EQ(state.vreg(4)[i], mod.add(i, t));
        EXPECT_EQ(state.vreg(5)[i], mod.sub(i, t));
    }
}

TEST_F(FunctionalSim, ButterflyInPlaceAliasing)
{
    // vd == vs and vd1 == vt: hardware reads before writing.
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::vload(3, 0, 1024));
    sim.step(Instruction::butterfly(1, 2, 1, 2, 3, 1));
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i) {
        const u128 t = mod.mul(u128(1024 + i), u128(512 + i));
        EXPECT_EQ(state.vreg(1)[i], mod.add(i, t));
        EXPECT_EQ(state.vreg(2)[i], mod.sub(i, t));
    }
}

TEST_F(FunctionalSim, ShuffleSemantics)
{
    sim.step(Instruction::vload(1, 0, 0));   // 0..511
    sim.step(Instruction::vload(2, 0, 512)); // 512..1023
    sim.step(Instruction::shuffle(Opcode::UNPKLO, 3, 1, 2));
    sim.step(Instruction::shuffle(Opcode::UNPKHI, 4, 1, 2));
    sim.step(Instruction::shuffle(Opcode::PKLO, 5, 1, 2));
    sim.step(Instruction::shuffle(Opcode::PKHI, 6, 1, 2));
    for (unsigned i = 0; i < VL / 2; ++i) {
        EXPECT_EQ(state.vreg(3)[2 * i], u128(i));
        EXPECT_EQ(state.vreg(3)[2 * i + 1], u128(512 + i));
        EXPECT_EQ(state.vreg(4)[2 * i], u128(256 + i));
        EXPECT_EQ(state.vreg(4)[2 * i + 1], u128(768 + i));
        EXPECT_EQ(state.vreg(5)[i], u128(2 * i));
        EXPECT_EQ(state.vreg(5)[VL / 2 + i], u128(512 + 2 * i));
        EXPECT_EQ(state.vreg(6)[i], u128(2 * i + 1));
        EXPECT_EQ(state.vreg(6)[VL / 2 + i], u128(512 + 2 * i + 1));
    }
}

TEST_F(FunctionalSim, PackUndoesUnpack)
{
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::shuffle(Opcode::UNPKLO, 3, 1, 2));
    sim.step(Instruction::shuffle(Opcode::UNPKHI, 4, 1, 2));
    sim.step(Instruction::shuffle(Opcode::PKLO, 5, 3, 4));
    sim.step(Instruction::shuffle(Opcode::PKHI, 6, 3, 4));
    EXPECT_EQ(state.vreg(5), state.vreg(1));
    EXPECT_EQ(state.vreg(6), state.vreg(2));
}

TEST_F(FunctionalSim, ShuffleSelfAliasing)
{
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::shuffle(Opcode::UNPKLO, 1, 1, 2)); // vd == vs
    for (unsigned i = 0; i < VL / 2; ++i) {
        EXPECT_EQ(state.vreg(1)[2 * i], u128(i));
        EXPECT_EQ(state.vreg(1)[2 * i + 1], u128(512 + i));
    }
}

TEST_F(FunctionalSim, CountsAreTracked)
{
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vload(2, 0, 512));
    sim.step(Instruction::butterfly(3, 4, 1, 2, 2, 1));
    sim.step(Instruction::shuffle(Opcode::PKLO, 5, 3, 4));
    sim.step(Instruction::vstore(5, 0, 2048));
    const FunctionalCounts &c = sim.counts();
    EXPECT_EQ(c.instructions, 5u);
    EXPECT_EQ(c.vdmWordsRead, 2u * VL);
    EXPECT_EQ(c.vdmWordsWritten, VL);
    EXPECT_EQ(c.laneMuls, VL);
    EXPECT_EQ(c.laneAdds, 2u * VL);
    EXPECT_EQ(c.shuffleWords, VL);
}

// -- Parameterised load/store round trips over the mode grid -----------

struct ModeCase
{
    AddrMode mode;
    unsigned value;
};

class LoadStoreModes : public testing::TestWithParam<ModeCase>
{
  protected:
    LoadStoreModes() : state(arch::kVdmDefaultBytes), sim(state)
    {
        state.setAreg(0, 0);
        for (unsigned i = 0; i < 65536; ++i)
            state.writeVdm(i, u128(i) * 3 + 1);
    }

    ArchState state;
    FunctionalSimulator sim;
};

TEST_P(LoadStoreModes, LoadMatchesLaneOffsets)
{
    const auto &c = GetParam();
    sim.step(Instruction::vload(1, 0, 64, c.mode, uint8_t(c.value)));
    for (unsigned i = 0; i < VL; ++i) {
        const uint64_t addr =
            64 + FunctionalSimulator::laneOffset(c.mode, c.value, i);
        EXPECT_EQ(state.vreg(1)[i], u128(addr) * 3 + 1) << "lane " << i;
    }
}

TEST_P(LoadStoreModes, StoreThenLoadRoundTrips)
{
    const auto &c = GetParam();
    if (c.mode == AddrMode::REPEATED)
        GTEST_SKIP() << "stores do not support REPEATED";
    sim.step(Instruction::vload(1, 0, 0));
    sim.step(Instruction::vstore(1, 0, 32768, c.mode, uint8_t(c.value)));
    sim.step(Instruction::vload(2, 0, 32768, c.mode, uint8_t(c.value)));
    EXPECT_EQ(state.vreg(2), state.vreg(1));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LoadStoreModes,
    testing::Values(ModeCase{AddrMode::CONTIGUOUS, 0},
                    ModeCase{AddrMode::STRIDED, 1},
                    ModeCase{AddrMode::STRIDED, 3},
                    ModeCase{AddrMode::STRIDED, 6},
                    ModeCase{AddrMode::STRIDED_SKIP, 1},
                    ModeCase{AddrMode::STRIDED_SKIP, 4},
                    ModeCase{AddrMode::STRIDED_SKIP, 8},
                    ModeCase{AddrMode::REPEATED, 1},
                    ModeCase{AddrMode::REPEATED, 5},
                    ModeCase{AddrMode::REPEATED, 9}),
    [](const auto &info) {
        return addrModeName(info.param.mode) + "_v" +
               std::to_string(info.param.value);
    });

TEST_F(FunctionalSim, ModulusSwitchingMidProgram)
{
    // The MRF allows per-instruction modulus selection: the same
    // (reduced) operands multiplied under two different moduli in
    // consecutive instructions. Operands must be reduced with respect
    // to the modulus used — the architectural contract.
    const u128 q2 = 257;
    state.setMreg(2, q2);
    for (unsigned i = 0; i < VL; ++i) {
        state.writeVdm(8000 + i, (i * 7 + 3) % 200);
        state.writeVdm(9000 + i, (i * 11 + 5) % 200);
    }
    sim.step(Instruction::vload(1, 0, 8000));
    sim.step(Instruction::vload(2, 0, 9000));
    sim.step(Instruction::vv(Opcode::VMULMOD, 3, 1, 2, 1));
    sim.step(Instruction::vv(Opcode::VMULMOD, 4, 1, 2, 2));
    const Modulus m1(q), m2(q2);
    for (unsigned i = 0; i < VL; ++i) {
        const u128 a = state.vreg(1)[i];
        const u128 b = state.vreg(2)[i];
        EXPECT_EQ(state.vreg(3)[i], m1.mul(a, b));
        EXPECT_EQ(state.vreg(4)[i], m2.mul(a, b));
    }
}

TEST_F(FunctionalSim, AssembledProgramRuns)
{
    const Program p = assemble("vload v1, a0, 0, contig\n"
                               "vload v2, a0, 512, contig\n"
                               "vaddmod v3, v1, v2, m1\n"
                               "vstore v3, a0, 2048, contig\n");
    sim.run(p);
    const Modulus mod(q);
    for (unsigned i = 0; i < VL; ++i)
        EXPECT_EQ(state.readVdm(2048 + i), mod.add(i, 512 + i));
}

/** Write every kind of state: VDM (a word and a bulk load, either
 *  one reaching the top word), SDM, one vector register through the
 *  mutable accessor, and one entry of each scalar register file. */
void
dirtyEveryKind(ArchState &s, u128 tag, bool load_at_top)
{
    const uint64_t top = s.vdmWords() - 1;
    const std::vector<u128> bulk(600, tag + 1);
    s.writeVdm(load_at_top ? 1000 : top, tag);
    s.loadVdm(load_at_top ? top + 1 - bulk.size() : 1000, bulk);
    s.writeSdm(arch::kSdmWords - 1, tag + 2);
    s.vreg(arch::kNumVregs - 1)[VL - 1] = tag + 3;
    s.setSreg(arch::kNumSregs - 1, tag + 4);
    s.setAreg(7, uint64_t(tag) + 5);
    s.setMreg(1, tag + 6);
}

/** Every word and register of @p s equals the same in @p fresh. */
void
expectSameState(const ArchState &s, const ArchState &fresh)
{
    ASSERT_EQ(s.vdmWords(), fresh.vdmWords());
    EXPECT_TRUE(s.dumpVdm(0, s.vdmWords()) ==
                fresh.dumpVdm(0, fresh.vdmWords()));
    size_t sdm_diffs = 0;
    for (uint64_t i = 0; i < arch::kSdmWords; ++i)
        sdm_diffs += s.readSdm(i) != fresh.readSdm(i);
    EXPECT_EQ(sdm_diffs, 0u);
    for (unsigned i = 0; i < arch::kNumVregs; ++i)
        EXPECT_TRUE(s.vreg(i) == fresh.vreg(i)) << "v" << i;
    for (unsigned i = 0; i < arch::kNumSregs; ++i)
        EXPECT_EQ(s.sreg(i), fresh.sreg(i)) << "s" << i;
    for (unsigned i = 0; i < arch::kNumAregs; ++i)
        EXPECT_EQ(s.areg(i), fresh.areg(i)) << "a" << i;
    for (unsigned i = 0; i < arch::kNumMregs; ++i)
        EXPECT_EQ(s.mreg(i), fresh.mreg(i)) << "m" << i;
}

TEST(ArchState, ResetEqualsFreshConstruction)
{
    // One state through the same size twice (the write, then the
    // bulk load, reaching the top word), a smaller and a larger VDM
    // size: each reset must also clear the tracking it consumed.
    const size_t sizes[] = {arch::kVdmDefaultBytes,
                            arch::kVdmDefaultBytes,
                            arch::kVdmDefaultBytes / 2,
                            2 * arch::kVdmDefaultBytes};
    ArchState s;
    for (size_t i = 0; i < std::size(sizes); ++i) {
        const size_t bytes = sizes[i];
        SCOPED_TRACE(bytes);
        const uint64_t old_top = s.vdmWords() - 1;
        dirtyEveryKind(s, 100 + 10 * i, i % 2 == 1);
        s.reset(bytes);
        expectSameState(s, ArchState(bytes));
        if (old_top >= s.vdmWords()) {
            // Shrinking keeps the out-of-bounds fault a fresh state has.
            EXPECT_EXIT(s.readVdm(old_top), testing::ExitedWithCode(1),
                        "out of bounds");
        }
    }
}

TEST(ArchState, HugeBulkAddressFaultsInsteadOfWrapping)
{
    // word_addr + size wraps to a small number; the bound must not.
    ArchState s;
    const uint64_t huge = UINT64_MAX - 1;
    EXPECT_EXIT(s.loadVdm(huge, std::vector<u128>(4, 1)),
                testing::ExitedWithCode(1), "bulk load out of bounds");
    EXPECT_EXIT(s.dumpVdm(huge, 4), testing::ExitedWithCode(1),
                "bulk dump out of bounds");
}

/** A hand-built image: @p prog over the default VDM, one output
 *  region of @p out_words at word 0, and @p sdm as the SDM image. */
KernelImage
handImage(Program prog, std::vector<u128> sdm, uint64_t out_words)
{
    KernelImage image;
    image.program = std::move(prog);
    image.sdmImage = std::move(sdm);
    image.vdmBytesRequired = arch::kVdmDefaultBytes;
    image.regions.push_back({"out", 0, out_words, false, true});
    return image;
}

TEST(ResidentState, IllFormedProgramSeesFreshStateAfterReuse)
{
    // Program A leaves state behind that no kernel of its image
    // stages: an SDM constant, a vector register, an address
    // register, and a VSTORE to an unstaged VDM word.
    Program a("dirty");
    a.append(Instruction::aload(2, 0));      // a2 <- SDM[0] = 4096
    a.append(Instruction::vbcast(9, 0, 1));  // v9 <- SDM[1] = 777
    a.append(Instruction::vstore(9, 2, 0));  // VDM[4096..] <- v9
    a.append(Instruction::vstore(9, 0, 0));  // out <- v9
    const KernelImage dirty = handImage(a, {4096, 777}, VL);

    // Program B reads all of it before writing any of it, staging
    // only its own SDM word 0. On a fresh state the first three
    // output vectors are zero and the last is B's constant, stored
    // through the (zero) address register A set.
    Program b("reader");
    b.append(Instruction::vload(4, 0, 4096)); // A's unstaged store
    b.append(Instruction::vstore(4, 0, 0));
    b.append(Instruction::vstore(9, 0, VL));  // A's vector register
    b.append(Instruction::vbcast(6, 0, 1));   // A's SDM constant
    b.append(Instruction::vstore(6, 0, 2 * VL));
    b.append(Instruction::vbcast(7, 0, 0));   // B's own constant
    b.append(Instruction::vstore(7, 2, 3 * VL)); // A's address reg
    const KernelImage reader = handImage(b, {555}, 4 * VL);
    std::vector<u128> fresh_out(4 * VL, 0);
    std::fill(fresh_out.begin() + 3 * VL, fresh_out.end(), u128(555));

    RpuDevice dev;
    FunctionalSimBackend reused;
    const auto out_a = reused.execute(dev, dirty, {});
    ASSERT_EQ(out_a[0], std::vector<u128>(VL, 777));

    const auto out_b = reused.execute(dev, reader, {});
    EXPECT_EQ(out_b, FunctionalSimBackend().execute(dev, reader, {}));
    EXPECT_EQ(out_b[0], fresh_out);
}

} // namespace
} // namespace rpu
