#include "serve/serve_domain.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hh"
#include "common/logging.hh"

namespace rapid {

namespace {

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

/** Ascending distinct tenant priorities with the top class removed:
 *  the brownout shedding rungs, lowest class first. */
std::vector<int>
brownoutShedCutoffs(const ServeConfig &cfg)
{
    std::vector<int> prios;
    for (const TenantConfig &t : cfg.tenants)
        if (std::find(prios.begin(), prios.end(), t.priority) ==
            prios.end())
            prios.push_back(t.priority);
    std::sort(prios.begin(), prios.end());
    if (!prios.empty())
        prios.pop_back(); // the highest class is never brownout-shed
    return prios;
}

} // namespace

ServeDomainCore::ServeDomainCore(const ServeSim &sim, DesDomain &dom)
    : sim_(sim), dom_(dom), cfg_(sim.config()), table_(&sim.table()),
      tenant_network_(sim.tenantNetwork()),
      max_batch_(cfg_.batcher.max_batch),
      max_wait_(cfg_.batcher.max_wait_ns),
      admission_(sim.config().overload.admission,
                 sim.networkNames().size() * sim.config().ladder.size()),
      brownout_(sim.config().overload.brownout,
                int(sim.config().ladder.size()) - 1 +
                    int(brownoutShedCutoffs(sim.config()).size())),
      brownout_precision_rungs_(int(sim.config().ladder.size()) - 1),
      brownout_shed_cutoffs_(brownoutShedCutoffs(sim.config()))
{
}

void
ServeDomainCore::start()
{
    dom_.schedule(0, kPriArrival, [this] { bootstrap(); });
}

void
ServeDomainCore::bootstrap()
{
    arrivals_ = generateArrivals(cfg_);
    result_.horizon_ns = cfg_.horizon_ns;
    result_.requests.resize(arrivals_.size());

    // Queue per (network, ladder position): created eagerly in a
    // deterministic order so queue ids are stable across runs.
    const size_t num_networks = sim_.networkNames().size();
    queue_of_.resize(num_networks);
    for (size_t n = 0; n < num_networks; ++n) {
        queue_of_[n].assign(cfg_.ladder.size(), -1);
        for (size_t li = 0; li < cfg_.ladder.size(); ++li) {
            Queue q;
            q.network = n;
            q.precision = cfg_.ladder[li];
            queue_of_[n][li] = int(queues_.size());
            queues_.push_back(q);
        }
    }
    head_gen_.assign(queues_.size(), 0);

    const OverloadConfig &ov = cfg_.overload;
    if (ov.anyEnabled()) {
        result_.queue_overload.resize(queues_.size());
        for (size_t qi = 0; qi < queues_.size(); ++qi) {
            result_.queue_overload[qi].network = queues_[qi].network;
            result_.queue_overload[qi].precision =
                queues_[qi].precision;
        }
    }
    if (ov.breaker.enabled)
        breakers_.assign(queues_.size(), CircuitBreaker(ov.breaker));
    bootstrapped_ = true;

    if (!arrivals_.empty())
        dom_.schedule(arrivals_[0].time_ns, kPriArrival,
                      [this] { onArrival(); });
}

void
ServeDomainCore::noteDepthChange(int64_t t, int64_t delta)
{
    result_.queue_depth_integral +=
        double(total_depth_) * double(t - last_event_ns_);
    last_event_ns_ = t;
    total_depth_ += delta;
    result_.max_queue_depth =
        std::max(result_.max_queue_depth, total_depth_);
    if (cfg_.overload.brownout.enabled)
        brownout_.observe(t, total_depth_);
}

// Worst-case service time of one queue holding @p extra more
// requests than it does now: every planned batch charged at the
// max-batch latency (monotone in size, so an upper bound).
int64_t
ServeDomainCore::queueServiceNs(const Queue &q, int64_t extra) const
{
    const int64_t depth = int64_t(q.depth()) + extra;
    if (depth <= 0)
        return int64_t{0};
    const int64_t batches = (depth + max_batch_ - 1) / max_batch_;
    return batches *
           table_->latencyNs(q.network, q.precision, max_batch_);
}

// Conservative chip backlog as seen by a request joining queue
// @p exclude: remaining executor time plus the worst-case service
// of every other queue (the joined queue is charged separately,
// with the request included, so nothing is double-counted).
int64_t
ServeDomainCore::backlogNs(int64_t t, size_t exclude) const
{
    int64_t backlog = busy_until_ > t ? busy_until_ - t : 0;
    for (size_t qi = 0; qi < queues_.size(); ++qi)
        if (qi != exclude)
            backlog += queueServiceNs(queues_[qi], 0);
    return backlog;
}

/**
 * The router ladder walk shared by trace and injected arrivals:
 * pick the cheapest precision at or above the tenant floor whose
 * predicted completion fits @p deadline_ns, queue the request there,
 * and return true. Returns false (caller sheds) when no ladder entry
 * fits or a brownout shedding rung drops the tenant. The prediction
 * comes from the calibrated tier when it vouches for the queue, else
 * from the proven worst-case bound.
 */
bool
ServeDomainCore::routeRequest(RequestRecord &rec, int64_t deadline_ns)
{
    const TenantConfig &tenant = cfg_.tenants[rec.tenant];
    const size_t net = tenant_network_[rec.tenant];
    const int floor = servingQuality(tenant.min_precision);
    const OverloadConfig &ov = cfg_.overload;

    // Brownout: precision rungs cap the ladder from the expensive
    // end; only the rungs past them shed, lowest priority class
    // first. Precision always degrades before anyone sheds.
    size_t cap = cfg_.ladder.size() - 1;
    if (ov.brownout.enabled) {
        const int level = brownout_.level(rec.arrival_ns);
        const int shed_rung = level - brownout_precision_rungs_;
        if (shed_rung > 0 &&
            tenant.priority <=
                brownout_shed_cutoffs_[size_t(shed_rung) - 1]) {
            rec.shed_reason = ShedReason::Brownout;
            return false;
        }
        cap -= size_t(std::min(level, brownout_precision_rungs_));
        // The cap never overrides a tenant's quality floor: if every
        // uncapped entry sits below the floor, the cap lifts for this
        // tenant (brownout degrades quality, it never sheds via the
        // precision rungs).
        bool floor_under_cap = false;
        for (size_t li = 0; li <= cap && !floor_under_cap; ++li)
            floor_under_cap =
                servingQuality(cfg_.ladder[li]) >= floor;
        if (!floor_under_cap)
            cap = cfg_.ladder.size() - 1;
    }

    for (size_t li = 0; li < cfg_.ladder.size(); ++li) {
        const Precision p = cfg_.ladder[li];
        if (servingQuality(p) < floor)
            continue;
        if (li > cap)
            continue;
        const size_t qi = size_t(queue_of_[net][li]);
        if (ov.breaker.enabled &&
            !breakers_[qi].allowAdmit(rec.arrival_ns))
            continue;
        AdmitTier tier = AdmitTier::Bound;
        int64_t predicted = 0;
        if (const std::optional<int64_t> wait =
                admission_.calibratedNs(qi)) {
            // Calibrated tier: the waits requests actually saw on
            // this queue plus this request's own max-batch execution.
            // Far tighter than the worst-case bound under steady
            // load; the tier's trust fuse guards the shortcut.
            tier = AdmitTier::Calibrated;
            predicted = *wait + table_->latencyNs(queues_[qi].network,
                                                  queues_[qi].precision,
                                                  max_batch_);
        } else {
            // With a single queue this is a hard upper bound on the
            // request's latency: batches ahead of it run back to back
            // (a full queue is ready immediately), and the executor
            // idles at most once, for at most max_wait past the
            // head's arrival, before the request's own partial batch
            // expires.
            predicted = backlogNs(rec.arrival_ns, qi) +
                        queueServiceNs(queues_[qi], +1) + max_wait_;
        }
        if (predicted <= deadline_ns) {
            rec.precision = p;
            rec.predicted_ns = predicted;
            rec.tier = tier;
            Queue &q = queues_[qi];
            const bool was_empty = q.empty();
            q.pending.push_back(rec.id);
            noteDepthChange(rec.arrival_ns, +1);
            if (ov.breaker.enabled) {
                rec.probe = breakers_[qi].onAdmit(rec.arrival_ns);
                breakers_[qi].onDepth(rec.arrival_ns,
                                      int64_t(q.depth()));
            }
            // A previously empty queue gains a head: arm its
            // max_wait expiry.
            if (was_empty)
                scheduleHeadTimeout(qi);
            return true;
        }
    }
    rec.shed_reason = ShedReason::Admission;
    return false;
}

void
ServeDomainCore::admit(const Arrival &a)
{
    RequestRecord &rec = result_.requests[a.id];
    rec.id = a.id;
    rec.tenant = a.tenant;
    rec.arrival_ns = a.time_ns;
    if (!routeRequest(rec, cfg_.tenants[a.tenant].deadline_ns))
        rec.shed = true; // no ladder entry can meet the deadline
}

// A queue is ready when full or its head has waited max_wait.
int
ServeDomainCore::readyQueue(int64_t t) const
{
    int best = -1;
    int64_t best_head = kNever;
    for (size_t qi = 0; qi < queues_.size(); ++qi) {
        const Queue &q = queues_[qi];
        if (q.empty())
            continue;
        const int64_t head_arrival =
            result_.requests[q.pending[q.head]].arrival_ns;
        const bool full = int64_t(q.depth()) >= max_batch_;
        const bool expired = t - head_arrival >= max_wait_;
        const bool drained = next_arrival_ >= arrivals_.size();
        if ((full || expired || drained) && head_arrival < best_head) {
            best = int(qi);
            best_head = head_arrival;
        }
    }
    return best;
}

void
ServeDomainCore::scheduleHeadTimeout(size_t qi)
{
    const Queue &q = queues_[qi];
    rapid_dassert(!q.empty(),
                  "arming a head timeout on an empty queue");
    const int64_t head_arrival =
        result_.requests[q.pending[q.head]].arrival_ns;
    // The serial loop clamps an already-expired timeout to the
    // current instant; schedule does the same.
    const int64_t when = std::max(dom_.now(), head_arrival + max_wait_);
    const uint64_t gen = head_gen_[qi];
    dom_.schedule(when, kPriTimeout,
                  [this, qi, gen] { onTimeout(qi, gen); });
}

void
ServeDomainCore::launch(int qi, int64_t t)
{
    Queue &q = queues_[size_t(qi)];
    const int64_t size =
        std::min<int64_t>(int64_t(q.depth()), max_batch_);
    BatchRecord batch;
    batch.network = q.network;
    batch.precision = q.precision;
    batch.size = size;
    batch.launch_ns = t;
    batch.completion_ns =
        t + table_->latencyNs(q.network, q.precision, size);
    batch.energy_j = table_->energyJ(q.network, q.precision, size);
    batch.forced_by_timeout =
        size < max_batch_ && next_arrival_ < arrivals_.size();
    // The calibrated tier and the breaker need per-request SLA
    // outcomes at completion time; capture the launched ids only when
    // one of them is on (the default path stays allocation-free).
    const bool track_outcomes = cfg_.overload.admission.enabled ||
                                cfg_.overload.breaker.enabled;
    std::vector<uint64_t> launched;
    if (track_outcomes)
        launched.assign(q.pending.begin() + long(q.head),
                        q.pending.begin() + long(q.head) +
                            long(size));
    for (int64_t i = 0; i < size; ++i) {
        RequestRecord &rec =
            result_.requests[q.pending[q.head + size_t(i)]];
        rec.launch_ns = t;
        rec.completion_ns = batch.completion_ns;
        // Feed the queue's wait window at launch: the wait is known
        // here, and future admissions may use it immediately.
        admission_.observe(size_t(qi), t - rec.arrival_ns);
    }
    q.head += size_t(size);
    if (q.empty()) {
        q.pending.clear();
        q.head = 0;
    }
    noteDepthChange(t, -size);
    busy_until_ = batch.completion_ns;
    result_.batches.push_back(batch);
    // The launched head is gone: invalidate its pending timeout
    // and arm the next head's.
    ++head_gen_[size_t(qi)];
    if (!q.empty())
        scheduleHeadTimeout(size_t(qi));
    if (track_outcomes) {
        const size_t uqi = size_t(qi);
        dom_.schedule(batch.completion_ns, kPriCompletion,
                      [this, uqi, ids = std::move(launched)] {
                          onBatchOutcome(uqi, ids);
                          tryLaunch(dom_.now());
                      });
    } else {
        dom_.schedule(batch.completion_ns, kPriCompletion,
                      [this] { tryLaunch(dom_.now()); });
    }
}

/**
 * SLA outcomes of a completed batch: feed the queue's trust fuse and
 * circuit breaker. Runs in the completion lane, before the freed
 * executor launches again.
 */
void
ServeDomainCore::onBatchOutcome(size_t qi,
                                const std::vector<uint64_t> &ids)
{
    if (dead_)
        return; // halt() already filed these requests as failed
    const int64_t now = dom_.now();
    const OverloadConfig &ov = cfg_.overload;
    for (uint64_t id : ids) {
        const RequestRecord &rec = result_.requests[id];
        const bool violation =
            rec.latencyNs() > cfg_.tenants[rec.tenant].deadline_ns;
        admission_.onOutcome(qi, rec.tier, violation, now);
        if (ov.breaker.enabled)
            breakers_[qi].onOutcome(now, violation, rec.probe);
    }
}

/** The executor may act: launch the ready queue with the oldest
 *  head, if any — the serial loop's per-wakeup step. */
void
ServeDomainCore::tryLaunch(int64_t t)
{
    if (dead_ || t < busy_until_)
        return;
    const int ready = readyQueue(t);
    if (ready >= 0)
        launch(ready, t);
}

void
ServeDomainCore::onArrival()
{
    if (dead_)
        return;
    // Admit every arrival at the current instant (merged order),
    // exactly like the serial loop's admission sweep.
    while (next_arrival_ < arrivals_.size() &&
           arrivals_[next_arrival_].time_ns <= dom_.now())
        admit(arrivals_[next_arrival_++]);
    if (next_arrival_ < arrivals_.size())
        dom_.schedule(arrivals_[next_arrival_].time_ns, kPriArrival,
                      [this] { onArrival(); });
    tryLaunch(dom_.now());
}

void
ServeDomainCore::onTimeout(size_t qi, uint64_t gen)
{
    // A launch bumped the generation: this head no longer exists
    // and the serial loop would never have woken here.
    if (dead_ || gen != head_gen_[qi])
        return;
    tryLaunch(dom_.now());
}

uint64_t
ServeDomainCore::injectArrival(int64_t time_ns, unsigned tenant,
                               int64_t deadline_ns)
{
    RAPID_CHECK_ARG(tenant < cfg_.tenants.size(),
                    "injectArrival: tenant ", tenant,
                    " out of range for ", cfg_.tenants.size(),
                    " tenants");
    RAPID_CHECK_ARG(deadline_ns > 0,
                    "injectArrival: non-positive deadline budget ",
                    deadline_ns);
    rapid_assert(bootstrapped_ && !dead_,
                 "injectArrival outside the live window");
    const uint64_t id = result_.requests.size();
    result_.requests.emplace_back();
    const int64_t when = std::max(dom_.now(), time_ns);
    pending_injected_.push_back({id, tenant, when});
    dom_.schedule(when, kPriArrival,
                  [this, id, tenant, when, deadline_ns] {
                      if (dead_)
                          return; // halt() already filed the record
                      for (size_t i = 0; i < pending_injected_.size();
                           ++i)
                          if (pending_injected_[i].id == id) {
                              pending_injected_.erase(
                                  pending_injected_.begin() +
                                  long(i));
                              break;
                          }
                      RequestRecord &rec = result_.requests[id];
                      rec.id = id;
                      rec.tenant = tenant;
                      rec.arrival_ns = when;
                      if (!routeRequest(rec, deadline_ns))
                          rec.shed = true;
                      tryLaunch(dom_.now());
                  });
    return id;
}

HaltReport
ServeDomainCore::halt()
{
    rapid_assert(bootstrapped_ && !dead_,
                 "halt outside the live window");
    dead_ = true;
    halt_ns_ = dom_.now();
    HaltReport report;
    report.halt_ns = halt_ns_;

    auto file = [&](uint64_t id, bool admitted) {
        RequestRecord &rec = result_.requests[id];
        rec.failed = true;
        OrphanRequest o;
        o.id = id;
        o.tenant = rec.tenant;
        o.arrival_ns = rec.arrival_ns;
        o.admitted = admitted;
        report.orphans.push_back(o);
    };

    // In-flight launched requests (the executor died mid-batch), in
    // id order.
    for (size_t id = 0; id < result_.requests.size(); ++id) {
        const RequestRecord &rec = result_.requests[id];
        if (!rec.shed && !rec.failed && rec.launch_ns >= 0 &&
            rec.completion_ns > halt_ns_)
            file(id, true);
    }
    // Queued requests, in (queue id, FIFO) order.
    noteDepthChange(halt_ns_, -total_depth_);
    for (Queue &q : queues_) {
        for (size_t i = q.head; i < q.pending.size(); ++i)
            file(q.pending[i], true);
        q.pending.clear();
        q.head = 0;
    }
    // Injected arrivals scheduled but not yet admitted.
    for (const InjectedPending &p : pending_injected_) {
        RequestRecord &rec = result_.requests[p.id];
        rec.id = p.id;
        rec.tenant = p.tenant;
        rec.arrival_ns = p.when;
        file(p.id, false);
    }
    pending_injected_.clear();
    // The unadmitted trace remainder, in trace order.
    for (size_t i = next_arrival_; i < arrivals_.size(); ++i) {
        const Arrival &a = arrivals_[i];
        RequestRecord &rec = result_.requests[a.id];
        rec.id = a.id;
        rec.tenant = a.tenant;
        rec.arrival_ns = a.time_ns;
        file(a.id, false);
    }
    next_arrival_ = arrivals_.size();
    return report;
}

void
ServeDomainCore::setTable(const LatencyTable *table)
{
    RAPID_CHECK_ARG(table != nullptr, "setTable: null latency table");
    table_ = table;
}

/**
 * Close the run. end_ns cannot read dom.now(): stale timeouts
 * legitimately advance the domain clock past the last state change.
 * The serial loop's final `now` is provably max(busy_until, last
 * arrival, 0) — every other advance target (a timeout it wakes for)
 * immediately launches and is therefore <= the final busy_until. A
 * halted chip instead freezes at the halt instant, where its depth
 * integral was closed.
 */
ServeResult
ServeDomainCore::finish()
{
    // Final overload snapshots: fuse outcomes, breaker counters and
    // the brownout trace settled through the end of the run.
    auto closeOverload = [this](int64_t end) {
        for (size_t qi = 0; qi < admission_.fuses().size(); ++qi)
            static_cast<AdmissionFuse &>(result_.queue_overload[qi]) =
                admission_.fuses()[qi];
        if (cfg_.overload.breaker.enabled)
            for (size_t qi = 0; qi < breakers_.size(); ++qi) {
                result_.queue_overload[qi].breaker_opens =
                    breakers_[qi].opens();
                result_.queue_overload[qi].breaker_closes =
                    breakers_[qi].closes();
            }
        if (cfg_.overload.brownout.enabled) {
            brownout_.level(end);
            result_.brownout_transitions = brownout_.transitions();
        }
    };
    if (dead_) {
        result_.end_ns = halt_ns_;
        closeOverload(halt_ns_);
        return std::move(result_);
    }
    int64_t end = std::max<int64_t>(busy_until_, 0);
    if (!arrivals_.empty())
        end = std::max(end, arrivals_.back().time_ns);
    result_.end_ns = end;
    noteDepthChange(end, 0); // close the depth integral
    closeOverload(end);
    return std::move(result_);
}

} // namespace rapid
