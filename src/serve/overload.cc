#include "serve/overload.hh"

#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"

namespace rapid {

const char *
admitTierName(AdmitTier tier)
{
    switch (tier) {
      case AdmitTier::Bound: return "bound";
      case AdmitTier::Calibrated: return "calibrated";
    }
    return "?";
}

const char *
shedReasonName(ShedReason reason)
{
    switch (reason) {
      case ShedReason::None: return "none";
      case ShedReason::Admission: return "admission";
      case ShedReason::Brownout: return "brownout";
    }
    return "?";
}

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::Closed: return "closed";
      case BreakerState::Open: return "open";
      case BreakerState::HalfOpen: return "half-open";
    }
    return "?";
}

void
validateCalibratedAdmissionConfig(const CalibratedAdmissionConfig &cfg)
{
    RAPID_CHECK_CONFIG(cfg.window > 0,
                       "calibrated admission: window must be > 0, got ",
                       cfg.window);
    RAPID_CHECK_CONFIG(cfg.min_samples >= 1 &&
                           cfg.min_samples <= cfg.window,
                       "calibrated admission: min_samples must be in "
                       "[1, window], got ",
                       cfg.min_samples, " with window ", cfg.window);
    RAPID_CHECK_CONFIG(std::isfinite(cfg.safety_margin) &&
                           cfg.safety_margin >= 1.0,
                       "calibrated admission: safety_margin must be "
                       ">= 1, got ",
                       cfg.safety_margin);
}

AdmissionTier::AdmissionTier(const CalibratedAdmissionConfig &cfg,
                             size_t slots)
    : cfg_(cfg)
{
    if (!cfg_.enabled)
        return;
    windows_.assign(slots, QueueDelayEstimator(cfg_.window));
    fuses_.resize(slots);
}

std::optional<int64_t>
AdmissionTier::calibratedNs(size_t slot) const
{
    if (!cfg_.enabled || fuses_[slot].fuse_tripped ||
        windows_[slot].windowFill() < cfg_.min_samples)
        return std::nullopt;
    return int64_t(double(windows_[slot].p95Ns()) * cfg_.safety_margin);
}

void
AdmissionTier::onOutcome(size_t slot, AdmitTier tier, bool violation,
                         int64_t now)
{
    // A calibrated admit missed its SLA: the window can no longer be
    // trusted on this slot, so latch it back to the proven bound.
    if (cfg_.enabled && cfg_.fuse_enabled && violation &&
        tier == AdmitTier::Calibrated && !fuses_[slot].fuse_tripped)
        fuses_[slot] = {true, now};
}

void
validateOverloadConfig(const OverloadConfig &cfg)
{
    validateCalibratedAdmissionConfig(cfg.admission);
    RAPID_CHECK_CONFIG(cfg.breaker.depth_open >= 1,
                       "circuit breaker: depth_open must be >= 1, got ",
                       cfg.breaker.depth_open);
    RAPID_CHECK_CONFIG(cfg.breaker.violations_open >= 1,
                       "circuit breaker: violations_open must be >= 1, "
                       "got ",
                       cfg.breaker.violations_open);
    RAPID_CHECK_CONFIG(cfg.breaker.open_ns > 0,
                       "circuit breaker: open_ns must be positive, "
                       "got ",
                       cfg.breaker.open_ns);
    RAPID_CHECK_CONFIG(cfg.breaker.probe_count >= 1,
                       "circuit breaker: probe_count must be >= 1, "
                       "got ",
                       cfg.breaker.probe_count);
    RAPID_CHECK_CONFIG(cfg.brownout.depth_low >= 0,
                       "brownout: depth_low must be >= 0, got ",
                       cfg.brownout.depth_low);
    RAPID_CHECK_CONFIG(cfg.brownout.depth_high > cfg.brownout.depth_low,
                       "brownout: depth_high must exceed depth_low, "
                       "got high ",
                       cfg.brownout.depth_high, " low ",
                       cfg.brownout.depth_low);
    RAPID_CHECK_CONFIG(cfg.brownout.escalate_ns > 0,
                       "brownout: escalate_ns must be positive, got ",
                       cfg.brownout.escalate_ns);
    RAPID_CHECK_CONFIG(cfg.brownout.recover_ns > 0,
                       "brownout: recover_ns must be positive, got ",
                       cfg.brownout.recover_ns);
}

CircuitBreaker::CircuitBreaker(const BreakerConfig &cfg) : cfg_(cfg) {}

void
CircuitBreaker::transition(int64_t now, BreakerState next)
{
    rapid_dassert(next != state_, "breaker self-transition");
    state_ = next;
    switch (next) {
      case BreakerState::Open:
        ++opens_;
        opened_at_ = now;
        consecutive_violations_ = 0;
        break;
      case BreakerState::HalfOpen:
        probes_started_ = 0;
        probe_successes_ = 0;
        break;
      case BreakerState::Closed:
        ++closes_;
        consecutive_violations_ = 0;
        break;
    }
}

bool
CircuitBreaker::allowAdmit(int64_t now)
{
    if (!cfg_.enabled)
        return true;
    if (state_ == BreakerState::Open &&
        now - opened_at_ >= cfg_.open_ns)
        transition(now, BreakerState::HalfOpen);
    switch (state_) {
      case BreakerState::Closed: return true;
      case BreakerState::Open: return false;
      case BreakerState::HalfOpen:
        return probes_started_ < cfg_.probe_count;
    }
    return true;
}

bool
CircuitBreaker::onAdmit(int64_t now)
{
    (void)now;
    if (!cfg_.enabled || state_ != BreakerState::HalfOpen)
        return false;
    ++probes_started_;
    return true;
}

void
CircuitBreaker::onDepth(int64_t now, int64_t depth)
{
    if (!cfg_.enabled || state_ != BreakerState::Closed)
        return;
    if (depth >= cfg_.depth_open)
        transition(now, BreakerState::Open);
}

void
CircuitBreaker::onOutcome(int64_t now, bool violation, bool probe)
{
    if (!cfg_.enabled)
        return;
    if (probe) {
        // A probe outcome settles the half-open question no matter
        // what state interleaved admissions moved us to.
        if (violation) {
            if (state_ != BreakerState::Open)
                transition(now, BreakerState::Open);
        } else if (state_ == BreakerState::HalfOpen &&
                   ++probe_successes_ >= cfg_.probe_count) {
            transition(now, BreakerState::Closed);
        }
        return;
    }
    // Outcomes of pre-open admissions only matter while Closed: they
    // feed the consecutive-violation trigger.
    if (state_ != BreakerState::Closed)
        return;
    consecutive_violations_ =
        violation ? consecutive_violations_ + 1 : 0;
    if (consecutive_violations_ >= cfg_.violations_open)
        transition(now, BreakerState::Open);
}

BrownoutController::BrownoutController(const BrownoutConfig &cfg,
                                       int max_level)
    : cfg_(cfg), max_level_(max_level)
{
    rapid_dassert(max_level >= 0, "negative brownout ladder");
}

void
BrownoutController::advanceTo(int64_t now)
{
    // Settle every dwell that completed before @p now: each level
    // change is stamped at the exact instant its dwell elapsed, and
    // the next dwell starts there, so multi-level escalation across a
    // long event gap lands on the same timestamps a continuous
    // observer would record.
    while (high_since_ >= 0 && level_ < max_level_ &&
           now - high_since_ >= cfg_.escalate_ns) {
        high_since_ += cfg_.escalate_ns;
        ++level_;
        transitions_.push_back({high_since_, level_});
    }
    while (low_since_ >= 0 && level_ > 0 &&
           now - low_since_ >= cfg_.recover_ns) {
        low_since_ += cfg_.recover_ns;
        --level_;
        transitions_.push_back({low_since_, level_});
    }
}

void
BrownoutController::observe(int64_t now, int64_t depth)
{
    if (!cfg_.enabled)
        return;
    advanceTo(now);
    if (depth >= cfg_.depth_high) {
        if (high_since_ < 0)
            high_since_ = now;
        low_since_ = -1;
    } else if (depth <= cfg_.depth_low) {
        if (low_since_ < 0)
            low_since_ = now;
        high_since_ = -1;
    } else {
        // Hysteresis middle band: hold the current level.
        high_since_ = -1;
        low_since_ = -1;
    }
}

int
BrownoutController::level(int64_t now)
{
    if (!cfg_.enabled)
        return 0;
    advanceTo(now);
    return level_;
}

} // namespace rapid
