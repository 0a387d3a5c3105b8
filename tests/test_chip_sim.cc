/**
 * @file
 * Tests for the chip-level integration simulation: compiled programs
 * running on multiple cores with weight tiles streamed over the ring
 * through the MNI, with and without multicast request aggregation.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "sim/chip_sim.hh"

namespace rapid {
namespace {

/** A pad-1 3x3 conv, by default 128x128 channels over 14x14. */
LayerProgram
compiledConv(Precision p = Precision::INT4, int64_t ci = 128,
             int64_t co = 128, int64_t hw = 14)
{
    Layer l;
    l.type = LayerType::Conv;
    l.name = "conv";
    l.ci = ci;
    l.co = co;
    l.h = hw;
    l.w = hw;
    l.kh = l.kw = 3;
    l.pad_h = l.pad_w = 1;
    CodeGenerator cg(makeInferenceChip());
    LayerPlan plan;
    plan.precision = p;
    return cg.generate(l, plan, 1);
}

TEST(ChipSim, AllCoresCompleteTheLayer)
{
    LayerProgram prog = compiledConv();
    ChipSim sim(4, /*multicast=*/true);
    ChipRunStats stats = sim.run(prog);
    ASSERT_EQ(stats.cores.size(), 4u);
    for (const auto &c : stats.cores) {
        EXPECT_EQ(c.fmma_issued, prog.fmma_slots);
        EXPECT_EQ(c.tiles_loaded, prog.num_tiles);
        EXPECT_LE(c.finish_cycle, stats.makespan);
    }
    EXPECT_GE(stats.makespan, Tick(prog.fmma_slots));
}

TEST(ChipSim, MulticastSavesRingTraffic)
{
    LayerProgram prog = compiledConv();
    ChipRunStats mc = ChipSim(4, true).run(prog);
    ChipRunStats uc = ChipSim(4, false).run(prog);
    // One aggregated multicast per tile (4 hops to the furthest
    // consumer) vs four direction-optimized unicasts (1+2+2+1 = 6
    // hops) on the 5-node ring: a 1.5x data-traffic saving, plus it
    // never finishes later.
    EXPECT_LT(double(mc.ring_flit_hops),
              0.75 * double(uc.ring_flit_hops));
    EXPECT_LE(mc.makespan, uc.makespan + 5);
}

TEST(ChipSim, ComputeBoundLayerHidesTheStream)
{
    // Plenty of compute per tile: the stream stays ahead, stalls are
    // limited to the first tile's delivery.
    LayerProgram prog = compiledConv(Precision::FP16);
    ChipRunStats stats = ChipSim(4, true).run(prog);
    for (const auto &c : stats.cores)
        EXPECT_LT(double(c.stall_cycles), 0.05 * stats.makespan);
}

TEST(ChipSim, SingleCoreDegeneratesToCoreletBehaviour)
{
    LayerProgram prog = compiledConv();
    ChipRunStats stats = ChipSim(1, true).run(prog);
    ASSERT_EQ(stats.cores.size(), 1u);
    EXPECT_EQ(stats.cores[0].fmma_issued, prog.fmma_slots);
}

TEST(ChipSim, MoreCoresMoreTrafficSameProgram)
{
    LayerProgram prog = compiledConv();
    ChipRunStats c2 = ChipSim(2, true).run(prog);
    ChipRunStats c4 = ChipSim(4, true).run(prog);
    // Multicast traffic grows with the ring span (2 -> 4 hops to the
    // furthest consumer) but not with the consumer count itself; the
    // small excess over 2x is the doubled request-control traffic.
    EXPECT_GT(c4.ring_flit_hops, c2.ring_flit_hops);
    EXPECT_LT(double(c4.ring_flit_hops),
              2.2 * double(c2.ring_flit_hops));
}

TEST(ChipSimDeathTest, DeadlockFailsToConverge)
{
    // A core waits on a token no transfer ever posts: the idle fabric
    // jumps straight to the cycle limit instead of stepping to it.
    LayerProgram prog;
    MpeInstruction wait;
    wait.op = Opcode::TokWait;
    wait.imm = 7;
    prog.mpe_program.push_back(wait);
    EXPECT_DEATH(ChipSim(2, true).run(prog), "failed to converge");
}

TEST(ChipSim, RejectsTokensBeyondTheSixteenBitImmediate)
{
    // bilstm1.fwd.gates of the SWB300 BiLSTM (seq_len 300): a GEMV
    // whose tile walk needs more ready tokens than TokWait can encode.
    Layer l;
    l.type = LayerType::Gemm;
    l.name = "bilstm1.fwd.gates";
    l.gm = 1;
    l.gk = 2048 + 1024;
    l.gn = 4 * 1024;
    l.repeat = 300;
    LayerPlan plan;
    plan.precision = Precision::FP16;
    const LayerProgram prog =
        CodeGenerator(makeInferenceChip()).generate(l, plan, 1);
    ASSERT_GE(prog.num_tiles, 65536u);
    try {
        (void)ChipSim(4, true).run(prog);
        FAIL() << "a program of " << prog.num_tiles << " tiles ran";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("ready_token 65536"), std::string::npos)
            << what;
        EXPECT_NE(what.find(std::to_string(prog.num_tiles) + " tiles"),
                  std::string::npos)
            << what;
    }
}

TEST(ChipSim, StatsMatchRecordedReference)
{
    // Plain anchors: the 128x128, 14x14, 3x3 conv on 4 multicast cores.
    EXPECT_EQ(ChipSim(4, true).run(compiledConv(Precision::FP16)).makespan,
              7345u);
    EXPECT_EQ(ChipSim(4, true).run(compiledConv(Precision::HFP8)).makespan,
              3674u);
    EXPECT_EQ(ChipSim(4, true).run(compiledConv(Precision::INT4)).makespan,
              919u);

    // A hand program whose Halt is the event an idle jump lands on:
    // one 512-byte block, then a 50-cycle FMMA with no tail.
    LayerProgram tiny;
    MpeInstruction inst;
    for (Opcode op : {Opcode::TokWait, Opcode::LrfLoad, Opcode::Fmma,
                      Opcode::Halt}) {
        inst.op = op;
        inst.imm = op == Opcode::Fmma ? 50 : 1;
        tiny.mpe_program.push_back(inst);
    }
    PlannedTransfer block;
    block.tag = 1;
    block.bytes = 512;
    block.ready_token = 1;
    tiny.transfers.push_back(block);
    for (unsigned cores : {1u, 2u}) {
        const ChipRunStats s = ChipSim(cores, true).run(tiny);
        EXPECT_EQ(s.makespan, 58u) << cores << " cores";
        EXPECT_EQ(s.cores[0].finish_cycle, 58u) << cores << " cores";
        EXPECT_EQ(s.ring_flit_hops, 5u * cores) << cores << " cores";
    }

    // FNV-1a over every stat of 486 runs, recorded from the per-cycle
    // simulator: any change in timing, traffic or work shows here.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    int runs = 0;
    for (Precision p : {Precision::FP16, Precision::HFP8, Precision::INT4})
        for (int64_t co : {16, 64, 256})
            for (int64_t hw : {1, 7, 28}) {
                const LayerProgram prog = compiledConv(p, 64, co, hw);
                for (unsigned cores : {1u, 2u, 4u})
                    for (bool multicast : {true, false})
                        for (unsigned loads : {1u, 2u, 16u}) {
                            MniConfig mni;
                            mni.max_outstanding_loads = loads;
                            const ChipRunStats s =
                                ChipSim(cores, multicast, mni)
                                    .run(prog, loads == 2 ? 1 : 8);
                            mix(s.makespan);
                            mix(s.ring_flit_hops);
                            for (const auto &c : s.cores) {
                                mix(c.finish_cycle);
                                mix(c.stall_cycles);
                                mix(c.fmma_issued);
                                mix(c.tiles_loaded);
                            }
                            ++runs;
                        }
            }
    EXPECT_EQ(runs, 486);
    EXPECT_EQ(h, 0x4a3ab1bdb03ec38bull);
}

} // namespace
} // namespace rapid
