#include "serve/latency_table.hh"

#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/precision_assign.hh"
#include "perf/perf_model.hh"
#include "power/power_model.hh"

namespace rapid {

namespace {

constexpr size_t kNumPrecisionModes = 5; // Precision enum cardinality

size_t
precIndex(Precision p)
{
    const size_t idx = size_t(p);
    rapid_assert(idx < kNumPrecisionModes, "precision index ", idx,
                 " out of range");
    return idx;
}

} // namespace

LatencyTable::LatencyTable(const ChipConfig &chip,
                           const std::vector<Network> &networks,
                           const std::vector<Precision> &precisions,
                           int64_t max_batch, const FaultConfig &fault)
    : num_networks_(networks.size()), max_batch_(max_batch),
      has_precision_(kNumPrecisionModes, false)
{
    RAPID_CHECK_ARG(!networks.empty(),
                    "latency table needs at least one network");
    RAPID_CHECK_ARG(!precisions.empty(),
                    "latency table needs at least one precision");
    RAPID_CHECK_ARG(max_batch >= 1,
                    "latency table max_batch must be >= 1, got ",
                    max_batch);
    for (Precision p : precisions)
        has_precision_[precIndex(p)] = true;
    std::vector<Precision> modes; // deduplicated, in enum order
    for (size_t i = 0; i < kNumPrecisionModes; ++i)
        if (has_precision_[i])
            modes.push_back(Precision(i));

    entries_.resize(num_networks_ * kNumPrecisionModes *
                    size_t(max_batch));

    // The models validate the chip and the fault scenario, the checks
    // an InferenceSession run makes; the plan does not depend on the
    // batch, so each (network, precision) is compiled once.
    const PerfModel perf(chip, fault);
    const PowerModel power(chip);
    std::vector<ExecutionPlan> plans;
    plans.reserve(networks.size() * modes.size());
    for (const Network &net : networks)
        for (Precision p : modes) {
            PrecisionOptions popts;
            popts.target = p;
            plans.push_back(assignPrecision(net, popts));
        }

    // Every (network, precision, batch) point is an independent
    // evaluation writing its own slot, so the frozen table is
    // bit-identical at any thread count.
    const size_t per_plan = size_t(max_batch);
    parallelFor(plans.size() * per_plan, [&](size_t idx) {
        const size_t plan = idx / per_plan;
        const size_t net = plan / modes.size();
        const Precision p = modes[plan % modes.size()];
        const int64_t batch = 1 + int64_t(idx % per_plan);
        const NetworkPerf np =
            perf.evaluate(networks[net], plans[plan], batch);
        rapid_dassert(np.total_seconds > 0.0,
                      "non-positive inference time");
        LatencyEntry &e =
            entries_[(net * kNumPrecisionModes + precIndex(p)) *
                         per_plan +
                     size_t(batch - 1)];
        const double ns = std::ceil(np.total_seconds * 1e9);
        e.latency_ns = ns < 1.0 ? 1 : int64_t(ns);
        e.energy_j = power.evaluate(np, networks[net]).energy_j;
    });
}

const LatencyEntry &
LatencyTable::at(size_t network, Precision p, int64_t batch) const
{
    rapid_assert(network < num_networks_, "network index ", network,
                 " out of range");
    rapid_assert(batch >= 1 && batch <= max_batch_, "batch ", batch,
                 " outside 1..", max_batch_);
    rapid_assert(hasPrecision(p), "precision ", precisionName(p),
                 " not evaluated in this table");
    return entries_[(network * kNumPrecisionModes + precIndex(p)) *
                        size_t(max_batch_) +
                    size_t(batch - 1)];
}

int64_t
LatencyTable::latencyNs(size_t network, Precision p,
                        int64_t batch) const
{
    return at(network, p, batch).latency_ns;
}

double
LatencyTable::energyJ(size_t network, Precision p, int64_t batch) const
{
    return at(network, p, batch).energy_j;
}

bool
LatencyTable::hasPrecision(Precision p) const
{
    return has_precision_[precIndex(p)];
}

} // namespace rapid
