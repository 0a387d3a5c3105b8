#include "sim/chip_sim.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "common/des.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace rapid {

namespace {

/**
 * Per-core program interpreter for the chip-level run; mirrors the
 * corelet simulator's processor but posts/waits tokens on a per-core
 * board fed by MNI completions.
 */
class CoreThread
{
  public:
    CoreThread(EventQueue &eq, const LayerProgram &prog,
               Tick lrf_load_cycles)
        : eq_(eq), tokens_(eq), prog_(prog),
          lrfLoadCycles_(lrf_load_cycles)
    {
    }

    void
    start()
    {
        eq_.scheduleIn(0, [this] { step(); });
    }

    /** MNI completion for this core: operands staged, wake waiters. */
    void tokenArrived(unsigned token) { tokens_.post(token); }

    bool done() const { return done_; }
    const CoreRunStats &stats() const { return stats_; }

  private:
    void
    step()
    {
        if (pc_ >= prog_.mpe_program.size()) {
            finish();
            return;
        }
        const MpeInstruction &inst = prog_.mpe_program[pc_++];
        switch (inst.op) {
          case Opcode::SetPrec:
          case Opcode::SetBias:
          case Opcode::Nop:
          case Opcode::TokPost:
          case Opcode::MovSouth:
            issue(1);
            return;
          case Opcode::TokWait: {
            const Tick begin = eq_.now();
            tokens_.wait(inst.imm, [this, begin] {
                stats_.stall_cycles += eq_.now() - begin;
                step();
            });
            return;
          }
          case Opcode::LrfLoad:
            ++stats_.tiles_loaded;
            issue(lrfLoadCycles_);
            return;
          case Opcode::Fmma:
            stats_.fmma_issued += inst.imm;
            issue(std::max<Tick>(1, inst.imm));
            return;
          case Opcode::Halt:
            finish();
            return;
        }
        rapid_panic("unhandled opcode in chip sim");
    }

    void
    issue(Tick cycles)
    {
        eq_.scheduleIn(cycles, [this] { step(); });
    }

    void
    finish()
    {
        done_ = true;
        stats_.finish_cycle = eq_.now();
    }

    EventQueue &eq_;
    TokenBoard tokens_;
    const LayerProgram &prog_;
    Tick lrfLoadCycles_;
    size_t pc_ = 0;
    bool done_ = false;
    CoreRunStats stats_;
};

} // namespace

ChipSim::ChipSim(unsigned num_cores, bool multicast, MniConfig mni_cfg)
    : numCores_(num_cores), multicast_(multicast), mniCfg_(mni_cfg)
{
    rapid_assert(num_cores >= 1, "need at least one core");
}

ChipRunStats
ChipSim::run(const LayerProgram &prog, Tick lrf_load_cycles)
{
    // TokWait/TokPost carry the ready token in a 16-bit immediate; a
    // larger token wraps in the encoded program and the core would wait
    // on an id no MNI completion ever posts.
    for (const PlannedTransfer &tr : prog.transfers)
        RAPID_CHECK_ARG(tr.ready_token <= 0xffff, "ChipSim: transfer ",
                        "ready_token ", tr.ready_token,
                        " exceeds the 16-bit TokWait immediate (program "
                        "of ", prog.num_tiles, " tiles; at most 65,535 "
                        "can be simulated)");
    RingConfig ring_cfg;
    ring_cfg.num_nodes = numCores_ + 1; // + memory interface
    MniFabric mni(ring_cfg, mniCfg_);

    EventQueue eq;
    std::vector<std::unique_ptr<CoreThread>> cores;
    for (unsigned c = 0; c < numCores_; ++c) {
        cores.push_back(std::make_unique<CoreThread>(
            eq, prog, lrf_load_cycles));
        cores.back()->start();
    }

    // Per-core sequencer cursors over the planned transfers: each
    // core requests its tiles in order, stalling at the MNI-LU's
    // outstanding limit. Under multicast every core uses the shared
    // tile tag; the unicast baseline privatizes tags per core.
    std::vector<size_t> next_transfer(numCores_, 0);
    auto tag_for = [&](unsigned core, size_t idx) -> uint64_t {
        const uint64_t base = prog.transfers[idx].tag;
        return multicast_ ? base : base * numCores_ + core + 1000000;
    };

    size_t completions_seen = 0;
    Tick tick = 0;
    const Tick limit = 500000000;
    auto all_done = [&] {
        for (const auto &c : cores)
            if (!c->done())
                return false;
        return true;
    };

    // A sequencer can post while it has transfers left and room in
    // its MNI-LU load queue.
    auto can_post = [&](unsigned c) {
        return next_transfer[c] < prog.transfers.size() &&
               mni.outstandingLoads(c) < mniCfg_.max_outstanding_loads;
    };

    while (!all_done()) {
        rapid_assert(++tick <= limit, "chip sim failed to converge");
        // Sequencers try to push their next requests.
        for (unsigned c = 0; c < numCores_; ++c) {
            while (next_transfer[c] < prog.transfers.size()) {
                const auto &tr = prog.transfers[next_transfer[c]];
                const unsigned consumers =
                    multicast_ ? numCores_ : 1;
                if (!mni.recv(c, mni.memoryNode(),
                              tag_for(c, next_transfer[c]), tr.bytes,
                              tr.ready_token, consumers))
                    break; // load queue full; retry next cycle
                ++next_transfer[c];
            }
        }
        mni.step();
        // Dispatch newly landed blocks to their cores' token boards.
        const auto &done = mni.completions();
        for (; completions_seen < done.size(); ++completions_seen) {
            const MniCompletion &comp = done[completions_seen];
            // local_addr carries the ready token (set above).
            cores[comp.consumer]->tokenArrived(
                unsigned(comp.local_addr));
        }
        eq.run(tick);

        // Time advance: while the fabric is busy the loop steps cycle
        // by cycle. Once it is quiescent (nothing on the ring and no
        // sequencer able to post) only a core event can change state
        // -- the sequencers alone touch the MNI and unblock only on a
        // ring delivery -- so jump to the cycle before the next core
        // event. The clamp keeps a deadlock failing the limit check.
        if (!mni.idle() || all_done())
            continue;
        bool blocked = true;
        for (unsigned c = 0; c < numCores_ && blocked; ++c)
            blocked = !can_post(c);
        if (!blocked)
            continue;
        const Tick next = std::min<Tick>(eq.nextTick(), limit + 1);
        if (next > tick + 1) {
            mni.skipIdle(next - 1 - tick);
            tick = next - 1;
        }
    }

    ChipRunStats stats;
    stats.makespan = tick;
    stats.ring_flit_hops = mni.ring().flitHopsMoved();
    for (const auto &c : cores)
        stats.cores.push_back(c->stats());
    return stats;
}

std::vector<ChipRunStats>
ChipSim::runBatch(const std::vector<LayerProgram> &progs,
                  Tick lrf_load_cycles) const
{
    // One DES domain per batch entry; each runs its whole chip
    // simulation as a single event at t=0 (the chip's own EventQueue
    // is the cycle-accurate micro-engine inside the domain). The
    // domains are independent — no channels — so the engine executes
    // the batch as one fully parallel window on the shared pool.
    DesEngine engine;
    std::vector<ChipRunStats> out(progs.size());
    for (size_t i = 0; i < progs.size(); ++i) {
        const DomainId id =
            engine.addDomain("chip" + std::to_string(i));
        engine.domain(id).schedule(0, 0, [this, &out, &progs, i,
                                          lrf_load_cycles] {
            ChipSim sim(numCores_, multicast_, mniCfg_);
            out[i] = sim.run(progs[i], lrf_load_cycles);
        });
    }
    engine.run();
    return out;
}

} // namespace rapid
