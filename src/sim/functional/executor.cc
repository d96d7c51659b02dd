#include "sim/functional/executor.hh"

#include <utility>

#include "common/logging.hh"
#include "modmath/simd.hh"

namespace rpu {

namespace {

/**
 * The narrow lane kernels are exact only for canonical inputs: a lane
 * value >= q would be truncated by the u64 cast, whereas the u128
 * Montgomery path reduces it. Well-formed programs only ever put
 * canonical residues in vector registers, but the bit-identity
 * contract between RPU_HOST_SIMD modes must hold for any program, so
 * verify before narrowing and fall back to the scalar loop otherwise.
 */
bool
narrowLanes(const ArchState::Vreg &v, u128 q, uint64_t *out)
{
    for (unsigned i = 0; i < arch::kVectorLength; ++i) {
        if (v[i] >= q)
            return false;
        out[i] = uint64_t(v[i]);
    }
    return true;
}

} // namespace

uint64_t
FunctionalSimulator::laneOffset(AddrMode mode, unsigned value,
                                unsigned lane)
{
    switch (mode) {
      case AddrMode::CONTIGUOUS:
        return lane;
      case AddrMode::STRIDED:
        return uint64_t(lane) << value;
      case AddrMode::STRIDED_SKIP: {
        // Runs of 2^value consecutive words, skipping the next 2^value.
        const uint64_t run = uint64_t(1) << value;
        return (lane / run) * 2 * run + (lane % run);
      }
      case AddrMode::REPEATED:
        return uint64_t(lane) >> value;
    }
    rpu_panic("unknown addressing mode");
}

const Modulus &
FunctionalSimulator::modulusFor(u128 q)
{
    auto it = resolved_.find(q);
    if (it == resolved_.end()) {
        const Modulus &m =
            (shared_cache_ ? *shared_cache_ : modulus_cache_).get(q);
        it = resolved_.emplace(q, &m).first;
    }
    return *it->second;
}

void
FunctionalSimulator::step(const Instruction &instr)
{
    ++counts_.instructions;
    switch (instr.pipeClass()) {
      case InstrClass::LoadStore:
        execLoadStore(instr);
        break;
      case InstrClass::Compute:
        execCompute(instr);
        break;
      case InstrClass::Shuffle:
        execShuffle(instr);
        break;
    }
}

void
FunctionalSimulator::run(const Program &prog)
{
    if (prog.size() > arch::kImMaxInstrs)
        rpu_fatal("program '%s' (%zu instrs) exceeds instruction memory",
                  prog.name().c_str(), prog.size());
    for (const auto &instr : prog.instructions())
        step(instr);
}

void
FunctionalSimulator::execLoadStore(const Instruction &instr)
{
    constexpr unsigned VL = arch::kVectorLength;
    switch (instr.op) {
      case Opcode::VLOAD: {
        const uint64_t base = state_.areg(instr.rm) + instr.address;
        auto &dst = state_.vreg(instr.vd);
        for (unsigned i = 0; i < VL; ++i) {
            dst[i] = state_.readVdm(
                base + laneOffset(instr.mode, instr.modeValue, i));
        }
        counts_.vdmWordsRead += VL;
        break;
      }
      case Opcode::VSTORE: {
        if (instr.mode == AddrMode::REPEATED)
            rpu_fatal("REPEATED mode is not defined for stores");
        const uint64_t base = state_.areg(instr.rm) + instr.address;
        const auto &src = std::as_const(state_).vreg(instr.vs);
        for (unsigned i = 0; i < VL; ++i) {
            state_.writeVdm(
                base + laneOffset(instr.mode, instr.modeValue, i), src[i]);
        }
        counts_.vdmWordsWritten += VL;
        break;
      }
      case Opcode::VBCAST: {
        const uint64_t addr = state_.areg(instr.rm) + instr.address;
        const u128 v = state_.readSdm(addr);
        state_.vreg(instr.vd).fill(v);
        ++counts_.sdmWordsRead;
        break;
      }
      case Opcode::SLOAD:
        state_.setSreg(instr.rt, state_.readSdm(instr.address));
        ++counts_.sdmWordsRead;
        break;
      case Opcode::MLOAD:
        state_.setMreg(instr.rt, state_.readSdm(instr.address));
        ++counts_.sdmWordsRead;
        break;
      case Opcode::ALOAD:
        state_.setAreg(instr.rt, uint64_t(state_.readSdm(instr.address)));
        ++counts_.sdmWordsRead;
        break;
      default:
        rpu_panic("not a load/store op");
    }
}

void
FunctionalSimulator::execCompute(const Instruction &instr)
{
    constexpr unsigned VL = arch::kVectorLength;
    const Modulus &mod = modulusFor(state_.mreg(instr.rm));

    // Read all sources before writing any destination so that
    // destination aliasing (vd == vs etc.) behaves like hardware with
    // read-before-write register file timing.
    const ArchState::Vreg vs = std::as_const(state_).vreg(instr.vs);

    const simd::NarrowModulus *nm =
        simd::narrowLanesActive() ? mod.narrow() : nullptr;

    if (instr.isButterfly()) {
        const ArchState::Vreg vt = std::as_const(state_).vreg(instr.vt);
        const ArchState::Vreg vt1 = std::as_const(state_).vreg(instr.vt1);
        ArchState::Vreg sum, diff;
        uint64_t nx[VL], ny[VL], nw[VL];
        if (nm && narrowLanes(vs, mod.value(), nx) &&
            narrowLanes(vt, mod.value(), ny) &&
            narrowLanes(vt1, mod.value(), nw)) {
            uint64_t ns[VL], nd[VL];
            simd::butterflyMulModSpan(nx, ny, nw, ns, nd, VL, *nm);
            for (unsigned i = 0; i < VL; ++i) {
                sum[i] = ns[i];
                diff[i] = nd[i];
            }
        } else {
            for (unsigned i = 0; i < VL; ++i) {
                const u128 t = mod.mul(vt1[i], vt[i]);
                sum[i] = mod.add(vs[i], t);
                diff[i] = mod.sub(vs[i], t);
            }
        }
        state_.vreg(instr.vd) = sum;
        state_.vreg(instr.vd1) = diff;
        counts_.laneMuls += VL;
        counts_.laneAdds += 2ull * VL;
        return;
    }

    ArchState::Vreg out;
    switch (instr.op) {
      case Opcode::VADDMOD:
      case Opcode::VSUBMOD:
      case Opcode::VMULMOD: {
        const ArchState::Vreg vt = std::as_const(state_).vreg(instr.vt);
        uint64_t na[VL], nb[VL];
        if (instr.op == Opcode::VMULMOD && nm &&
            narrowLanes(vs, mod.value(), na) &&
            narrowLanes(vt, mod.value(), nb)) {
            uint64_t no[VL];
            simd::mulModSpan(na, nb, no, VL, *nm);
            for (unsigned i = 0; i < VL; ++i)
                out[i] = no[i];
            break;
        }
        for (unsigned i = 0; i < VL; ++i) {
            if (instr.op == Opcode::VADDMOD)
                out[i] = mod.add(vs[i], vt[i]);
            else if (instr.op == Opcode::VSUBMOD)
                out[i] = mod.sub(vs[i], vt[i]);
            else
                out[i] = mod.mul(vs[i], vt[i]);
        }
        break;
      }
      case Opcode::VSADDMOD:
      case Opcode::VSSUBMOD:
      case Opcode::VSMULMOD: {
        const u128 s = state_.sreg(instr.rt);
        uint64_t na[VL];
        if (instr.op == Opcode::VSMULMOD && nm && s < mod.value() &&
            narrowLanes(vs, mod.value(), na)) {
            // Per-instruction Shoup precompute: one 128/64 division
            // amortised over all kVectorLength lanes.
            const uint64_t w = uint64_t(s);
            const uint64_t wShoup = simd::shoupPrecompute64(w, nm->q);
            uint64_t no[VL];
            simd::mulShoupSpan(na, no, VL, w, wShoup, nm->q);
            for (unsigned i = 0; i < VL; ++i)
                out[i] = no[i];
            break;
        }
        for (unsigned i = 0; i < VL; ++i) {
            if (instr.op == Opcode::VSADDMOD)
                out[i] = mod.add(vs[i], s);
            else if (instr.op == Opcode::VSSUBMOD)
                out[i] = mod.sub(vs[i], s);
            else
                out[i] = mod.mul(vs[i], s);
        }
        break;
      }
      default:
        rpu_panic("not a compute op");
    }
    state_.vreg(instr.vd) = out;

    if (instr.op == Opcode::VMULMOD || instr.op == Opcode::VSMULMOD)
        counts_.laneMuls += VL;
    else
        counts_.laneAdds += VL;
}

void
FunctionalSimulator::execShuffle(const Instruction &instr)
{
    constexpr unsigned VL = arch::kVectorLength;
    constexpr unsigned H = VL / 2;
    const ArchState::Vreg vs = std::as_const(state_).vreg(instr.vs);
    const ArchState::Vreg vt = std::as_const(state_).vreg(instr.vt);
    ArchState::Vreg out;

    switch (instr.op) {
      case Opcode::UNPKLO:
        // First halves of VS and VT, interleaved.
        for (unsigned i = 0; i < H; ++i) {
            out[2 * i] = vs[i];
            out[2 * i + 1] = vt[i];
        }
        break;
      case Opcode::UNPKHI:
        // Second halves of VS and VT, interleaved.
        for (unsigned i = 0; i < H; ++i) {
            out[2 * i] = vs[H + i];
            out[2 * i + 1] = vt[H + i];
        }
        break;
      case Opcode::PKLO:
        // Even lanes of VS to the first half, even lanes of VT to the
        // second half.
        for (unsigned i = 0; i < H; ++i) {
            out[i] = vs[2 * i];
            out[H + i] = vt[2 * i];
        }
        break;
      case Opcode::PKHI:
        // Odd lanes likewise.
        for (unsigned i = 0; i < H; ++i) {
            out[i] = vs[2 * i + 1];
            out[H + i] = vt[2 * i + 1];
        }
        break;
      default:
        rpu_panic("not a shuffle op");
    }
    state_.vreg(instr.vd) = out;
    counts_.shuffleWords += VL;
}

} // namespace rpu
