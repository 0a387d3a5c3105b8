#include "func/trainer.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/error.hh"

namespace rapid {

void
validateMlpConfig(const MlpConfig &cfg)
{
    RAPID_CHECK_ARG(cfg.dims.size() >= 2,
                    "MlpConfig.dims needs at least 2 entries (input and "
                    "output width), got ", cfg.dims.size());
    for (size_t i = 0; i < cfg.dims.size(); ++i)
        RAPID_CHECK_ARG(cfg.dims[i] > 0, "MlpConfig.dims[", i,
                        "] must be positive, got ", cfg.dims[i]);
    RAPID_CHECK_ARG(std::isfinite(cfg.learning_rate) &&
                        cfg.learning_rate > 0.0f,
                    "MlpConfig.learning_rate must be finite and "
                    "positive, got ", cfg.learning_rate);
    RAPID_CHECK_ARG(std::isfinite(cfg.momentum) && cfg.momentum >= 0.0f &&
                        cfg.momentum < 1.0f,
                    "MlpConfig.momentum must be in [0, 1), got ",
                    cfg.momentum);
    RAPID_CHECK_ARG(std::isfinite(cfg.pact_alpha_init) &&
                        cfg.pact_alpha_init > 0.0f,
                    "MlpConfig.pact_alpha_init must be finite and "
                    "positive, got ", cfg.pact_alpha_init);
    RAPID_CHECK_ARG(cfg.pact_bits >= 2,
                    "MlpConfig.pact_bits must be at least 2, got ",
                    cfg.pact_bits);
    RAPID_CHECK_ARG(std::isfinite(cfg.alpha_lr_scale) &&
                        cfg.alpha_lr_scale >= 0.0f,
                    "MlpConfig.alpha_lr_scale must be finite and "
                    ">= 0, got ", cfg.alpha_lr_scale);
    RAPID_CHECK_ARG(std::isfinite(cfg.alpha_decay) &&
                        cfg.alpha_decay >= 0.0f,
                    "MlpConfig.alpha_decay must be finite and >= 0, "
                    "got ", cfg.alpha_decay);
}

const char *
trainPrecisionName(TrainPrecision precision)
{
    switch (precision) {
      case TrainPrecision::FP32:
        return "fp32";
      case TrainPrecision::FP16:
        return "fp16";
      case TrainPrecision::HFP8:
        return "hfp8";
    }
    return "?";
}

namespace {

bool
allFinite(const std::vector<float> &v)
{
    for (float x : v)
        if (!std::isfinite(x))
            return false;
    return true;
}

} // namespace

bool
MlpState::operator==(const MlpState &o) const
{
    auto bitsEqual = [](const std::vector<float> &a,
                        const std::vector<float> &b) {
        if (a.size() != b.size())
            return false;
        // memcmp semantics: compare encodings, not float values, so
        // NaNs and signed zeros count as differences.
        return a.empty() ||
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(float)) == 0;
    };
    if (precision != o.precision || rng != o.rng ||
        layers.size() != o.layers.size())
        return false;
    for (size_t i = 0; i < layers.size(); ++i) {
        const DenseState &a = layers[i];
        const DenseState &b = o.layers[i];
        float av[2] = {a.alpha, a.alpha_vel};
        float bv[2] = {b.alpha, b.alpha_vel};
        if (!bitsEqual(a.w, b.w) || !bitsEqual(a.b, b.b) ||
            !bitsEqual(a.w_vel, b.w_vel) || !bitsEqual(a.b_vel, b.b_vel) ||
            std::memcmp(av, bv, sizeof(av)) != 0)
            return false;
    }
    return true;
}

Mlp::Mlp(const MlpConfig &cfg) : cfg_(cfg), rng_(cfg.seed)
{
    validateMlpConfig(cfg);
    for (size_t i = 0; i + 1 < cfg.dims.size(); ++i) {
        Dense d;
        int64_t in = cfg.dims[i];
        int64_t out = cfg.dims[i + 1];
        d.w = Tensor({out, in});
        d.w.fillKaiming(rng_, in);
        d.b = Tensor({out});
        d.w_vel = Tensor({out, in});
        d.b_vel = Tensor({out});
        d.alpha = cfg.pact_alpha_init;
        layers_.push_back(std::move(d));
    }
}

Tensor
Mlp::gemm(const Tensor &a, Fp8Kind a_kind, const Tensor &b,
          Fp8Kind b_kind)
{
    Tensor out;
    switch (cfg_.precision) {
      case TrainPrecision::FP32:
        out = matmul(a, b);
        break;
      case TrainPrecision::FP16:
        out = fp16Matmul(a, b, cfg_.exec);
        break;
      case TrainPrecision::HFP8:
        out = hfp8Matmul(a, a_kind, b, b_kind, cfg_.exec);
        break;
      default:
        rapid_panic("unknown training precision");
    }
    if (injector_ && injector_->active(FaultSite::TrainerGemm))
        injectGemmFaults(out);
    return out;
}

void
Mlp::injectGemmFaults(Tensor &out)
{
    // Mirror of the systolic MacOutput model at the training GEMM
    // boundary: a struck output element has one bit of its DLFloat16
    // (south-bus) encoding flipped. Items advance monotonically so
    // each executed GEMM — including a replay of the same step after
    // retry or rollback — is an independent exposure window. The
    // Bernoulli is the hash pre-filter: the full mt19937 stream is
    // only built for struck elements, keeping the per-element cost at
    // a hash rather than an RNG construction.
    const int64_t n = out.numel();
    const uint64_t base = fault_item_;
    fault_item_ += uint64_t(n);
    fault_stats_.sampled += uint64_t(n);
    for (int64_t i = 0; i < n; ++i) {
        const uint64_t item = base + uint64_t(i);
        if (!injector_->hashEventDraw(FaultSite::TrainerGemm, item))
            continue;
        ++fault_stats_.injected;
        Rng rng = injector_->stream(FaultSite::TrainerGemm, item);
        const FaultOutcome hit = injector_->resolveProtection(
            FaultSite::TrainerGemm, rng, fault_stats_);
        if (hit != FaultOutcome::Silent)
            continue; // corrected in place, or the GEMM tile replays
        const uint32_t word = dlfloat16().encode(out[i]);
        const float clean = dlfloat16().decode(word);
        const float bad = dlfloat16().decode(injector_->flipOneBit(
            rng, dlfloat16().storageBits(), word));
        if (bad == clean) {
            ++fault_stats_.masked; // e.g. a sign flip on zero
            continue;
        }
        ++fault_stats_.sdc;
        out[i] = bad;
    }
}

Tensor
Mlp::denseForward(Dense &d, const Tensor &x)
{
    d.x_cache = x;
    // Forward GEMM: both operands in the FP8 forward format (Fig 3).
    Tensor y = gemm(x, Fp8Kind::Forward, transpose(d.w),
                    Fp8Kind::Forward);
    return biasAdd(y, d.b);
}

Tensor
Mlp::forward(const Tensor &x)
{
    Tensor h = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
        Dense &d = layers_[i];
        Tensor y = denseForward(d, h);
        d.pre_act = y;
        if (i + 1 < layers_.size()) {
            if (cfg_.use_pact) {
                const float alpha = d.alpha;
                y.apply([alpha](float v) {
                    return std::clamp(v, 0.0f, alpha);
                });
            } else {
                y.apply([](float v) { return v > 0 ? v : 0.0f; });
            }
        }
        h = std::move(y);
    }
    return h;
}

Tensor
Mlp::denseBackward(Dense &d, const Tensor &dy)
{
    // Weight-gradient GEMM: errors in the FP8 backward format, cached
    // activations in the forward format (Fig 3).
    d.w_grad = gemm(transpose(dy), Fp8Kind::Backward, d.x_cache,
                    Fp8Kind::Forward);
    // Bias gradient: column reduction, performed on the SFU in FP32.
    d.b_grad = Tensor({dy.dim(1)});
    for (int64_t j = 0; j < dy.dim(1); ++j) {
        double acc = 0.0;
        for (int64_t i = 0; i < dy.dim(0); ++i)
            acc += dy.at(i, j);
        d.b_grad[j] = float(acc);
    }
    // Data-gradient GEMM: errors (backward format) x weights (forward).
    return gemm(dy, Fp8Kind::Backward, d.w, Fp8Kind::Forward);
}

void
Mlp::applyUpdates(Dense &d, float inv_scale)
{
    const float lr = cfg_.learning_rate;
    const float mom = cfg_.momentum;
    // inv_scale un-scales the loss-scaled gradients. Multiplication
    // by 1.0f is exact under IEEE 754, so an unscaled step (the
    // historical trainStep path) stays bit-identical.
    for (int64_t i = 0; i < d.w.numel(); ++i) {
        d.w_vel[i] = mom * d.w_vel[i] - lr * (d.w_grad[i] * inv_scale);
        d.w[i] += d.w_vel[i];
    }
    for (int64_t i = 0; i < d.b.numel(); ++i) {
        d.b_vel[i] = mom * d.b_vel[i] - lr * (d.b_grad[i] * inv_scale);
        d.b[i] += d.b_vel[i];
    }
    if (cfg_.use_pact) {
        d.alpha_vel = mom * d.alpha_vel
                      - lr * cfg_.alpha_lr_scale *
                            (d.alpha_grad * inv_scale);
        d.alpha = std::max(0.1f, d.alpha + d.alpha_vel);
    }
}

GradHealth
Mlp::computeGradients(const Tensor &x, const std::vector<int> &labels,
                      float loss_scale)
{
    Tensor logits = forward(x);
    GradHealth health;
    health.loss = softmaxCrossEntropy(logits, labels);
    health.loss_finite = std::isfinite(health.loss);
    Tensor dy = softmaxCrossEntropyGrad(logits, labels);
    if (loss_scale != 1.0f)
        dy.apply([loss_scale](float v) { return v * loss_scale; });

    for (size_t li = layers_.size(); li-- > 0;) {
        Dense &d = layers_[li];
        if (li + 1 < layers_.size()) {
            // Backprop through the PACT / ReLU activation (STE).
            Tensor gated = dy;
            float alpha_grad = 0.0f;
            for (int64_t i = 0; i < dy.numel(); ++i) {
                float pre = d.pre_act[i];
                if (cfg_.use_pact) {
                    PactQuantizer q(d.alpha, cfg_.pact_bits);
                    alpha_grad += dy[i] * q.gradAlpha(pre);
                    gated[i] = dy[i] * q.gradInput(pre);
                } else {
                    gated[i] = pre > 0 ? dy[i] : 0.0f;
                }
            }
            d.alpha_grad = alpha_grad + cfg_.alpha_decay * d.alpha;
            dy = denseBackward(d, gated);
        } else {
            dy = denseBackward(d, dy);
        }
    }
    // Per-step finiteness scan over every pending gradient: the
    // sensor the loss scaler's skip-step decision and the recovery
    // ladder both read.
    for (const Dense &d : layers_) {
        for (int64_t i = 0; i < d.w_grad.numel(); ++i) {
            const float g = d.w_grad[i];
            if (!std::isfinite(g))
                health.grads_finite = false;
            else
                health.grad_max_abs =
                    std::max(health.grad_max_abs, std::abs(g));
        }
        for (int64_t i = 0; i < d.b_grad.numel(); ++i) {
            const float g = d.b_grad[i];
            if (!std::isfinite(g))
                health.grads_finite = false;
            else
                health.grad_max_abs =
                    std::max(health.grad_max_abs, std::abs(g));
        }
        if (cfg_.use_pact && !std::isfinite(d.alpha_grad))
            health.grads_finite = false;
    }
    return health;
}

void
Mlp::applyStep(float inv_scale)
{
    for (auto &d : layers_)
        applyUpdates(d, inv_scale);
}

float
Mlp::trainStep(const Tensor &x, const std::vector<int> &labels)
{
    const GradHealth health = computeGradients(x, labels);
    applyStep();
    return health.loss;
}

void
Mlp::train(const Dataset &train, int epochs, int64_t batch_size)
{
    for (int e = 0; e < epochs; ++e) {
        for (int64_t b = 0; b + batch_size <= train.size();
             b += batch_size) {
            Dataset mb = train.slice(b, batch_size);
            trainStep(mb.features, mb.labels);
        }
    }
}

double
Mlp::evaluate(const Dataset &test)
{
    Tensor logits = forward(test.features);
    return accuracy(logits, test.labels);
}

double
Mlp::evaluateInt(const Dataset &test, unsigned width,
                 bool keep_edges_fp16)
{
    rapid_assert(cfg_.use_pact, "INT deployment requires PACT training");
    Tensor h = test.features;
    for (size_t i = 0; i < layers_.size(); ++i) {
        Dense &d = layers_[i];
        const bool edge = (i == 0 || i + 1 == layers_.size());
        Tensor y({h.dim(0), d.w.dim(0)});
        if (edge && keep_edges_fp16) {
            y = fp16Matmul(h, transpose(d.w), cfg_.exec);
        } else {
            // Input of a hidden layer is post-PACT of layer i-1:
            // bounded to [0, alpha_{i-1}] and safe to quantize.
            PactQuantizer act_q(layers_[i - 1].alpha, width);
            SawbQuantizer wt_q(d.w.storage(), width);
            y = intMatmul(h, act_q, transpose(d.w), wt_q, width,
                          cfg_.exec);
        }
        y = biasAdd(y, d.b);
        if (i + 1 < layers_.size()) {
            const float alpha = d.alpha;
            y.apply([alpha](float v) {
                return std::clamp(v, 0.0f, alpha);
            });
        }
        h = std::move(y);
    }
    return accuracy(h, test.labels);
}

float
Mlp::pactAlpha(size_t i) const
{
    rapid_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].alpha;
}

void
Mlp::setPrecision(TrainPrecision precision)
{
    cfg_.precision = precision;
}

void
Mlp::setFaultInjector(const FaultInjector *injector)
{
    injector_ = injector;
}

bool
Mlp::weightsFinite() const
{
    for (const Dense &d : layers_) {
        if (!allFinite(d.w.storage()) || !allFinite(d.b.storage()))
            return false;
        if (cfg_.use_pact && !std::isfinite(d.alpha))
            return false;
    }
    return true;
}

MlpState
Mlp::exportState() const
{
    MlpState state;
    state.precision = cfg_.precision;
    // The text is written by Rng's engine (Mt19937_64) in libstdc++'s
    // mt19937_64 format, 312 state words and the position; the oracle
    // tests pin it to std's text, and it round-trips the stream
    // position exactly.
    std::ostringstream oss;
    Rng rng_copy = rng_;
    oss << rng_copy.engine();
    state.rng = oss.str();
    for (const Dense &d : layers_) {
        DenseState ls;
        ls.w = d.w.storage();
        ls.b = d.b.storage();
        ls.w_vel = d.w_vel.storage();
        ls.b_vel = d.b_vel.storage();
        ls.alpha = d.alpha;
        ls.alpha_vel = d.alpha_vel;
        state.layers.push_back(std::move(ls));
    }
    return state;
}

void
Mlp::importState(const MlpState &state)
{
    RAPID_CHECK_ARG(state.layers.size() == layers_.size(),
                    "MlpState holds ", state.layers.size(),
                    " layers but the model has ", layers_.size());
    for (size_t i = 0; i < layers_.size(); ++i) {
        const DenseState &ls = state.layers[i];
        Dense &d = layers_[i];
        RAPID_CHECK_ARG(
            ls.w.size() == size_t(d.w.numel()) &&
                ls.b.size() == size_t(d.b.numel()) &&
                ls.w_vel.size() == size_t(d.w_vel.numel()) &&
                ls.b_vel.size() == size_t(d.b_vel.numel()),
            "MlpState layer ", i, " shape mismatch");
    }
    // A text that fails to parse leaves the engine as it was, so a
    // rejected state changes nothing.
    std::istringstream iss(state.rng);
    iss >> rng_.engine();
    RAPID_CHECK_ARG(!iss.fail(),
                    "MlpState.rng does not parse as an mt19937_64 "
                    "stream state");
    cfg_.precision = state.precision;
    for (size_t i = 0; i < layers_.size(); ++i) {
        const DenseState &ls = state.layers[i];
        Dense &d = layers_[i];
        d.w.storage() = ls.w;
        d.b.storage() = ls.b;
        d.w_vel.storage() = ls.w_vel;
        d.b_vel.storage() = ls.b_vel;
        d.alpha = ls.alpha;
        d.alpha_vel = ls.alpha_vel;
        d.alpha_grad = 0.0f;
    }
}

ParityResult
runTrainingParity(TrainPrecision precision, const Dataset &train,
                  const Dataset &test, int epochs, int64_t batch)
{
    MlpConfig base;
    base.dims = {train.featureDim(), 48, 48,
                 1 + *std::max_element(train.labels.begin(),
                                       train.labels.end())};
    base.precision = TrainPrecision::FP32;
    base.seed = 99;

    MlpConfig reduced = base;
    reduced.precision = precision;

    Mlp fp32_model(base);
    fp32_model.train(train, epochs, batch);
    Mlp reduced_model(reduced);
    reduced_model.train(train, epochs, batch);

    return {fp32_model.evaluate(test), reduced_model.evaluate(test)};
}

ParityResult
runInferenceParity(unsigned width, const Dataset &train,
                   const Dataset &test, int epochs, int64_t batch)
{
    MlpConfig cfg;
    cfg.dims = {train.featureDim(), 48, 48,
                1 + *std::max_element(train.labels.begin(),
                                      train.labels.end())};
    cfg.precision = TrainPrecision::FP32;
    cfg.use_pact = true;
    cfg.pact_bits = width;
    cfg.seed = 99;

    Mlp model(cfg);
    model.train(train, epochs, batch);
    return {model.evaluate(test), model.evaluateInt(test, width)};
}

} // namespace rapid
