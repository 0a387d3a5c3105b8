/**
 * @file
 * Deterministic random number generation. All stochastic components in
 * the library draw from explicitly seeded generators so experiments are
 * reproducible run-to-run.
 *
 * The engine is an in-house MT19937-64 that seeds lazily. Fault
 * injection builds a fresh stream per (seed, site, item) and draws
 * 1-18 numbers from it, so a seeding that fills and twists all 312
 * state words up front (about 2.2 us) would dominate the draws it
 * serves. Mt19937_64 extends the seeding recurrence and twists the
 * first block only as far as the next output needs, and produces the
 * same numbers as std::mt19937_64 from the same seed. That identity is
 * load-bearing: every golden snapshot, every perfbench sim_digest and
 * every saved training checkpoint (whose RNG state is the engine's
 * text in libstdc++'s format) was recorded with std::mt19937_64, and
 * the oracle tests in tests/test_common.cc pin draws and text to it.
 */

#ifndef RAPID_COMMON_RANDOM_HH
#define RAPID_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <vector>

namespace rapid {

/**
 * MT19937-64 with lazy seeding; a drop-in for std::mt19937_64 that
 * yields the same output sequence and reads and writes the same text.
 *
 * The constructor stores only x[0]. Output j < 156 of the first block
 * reads x[j], x[j + 1] and x[j + 156], so each draw extends the
 * recurrence x[i] = f * (x[i-1] ^ (x[i-1] >> 62)) + i to j + 157 words
 * and twists element j alone, in libstdc++'s _M_gen_rand order. Once
 * the recurrence reaches all 312 words (at j = 155) the rest of the
 * block is twisted in bulk, and every later block is twisted exactly
 * as std does, so steady-state draws cost the same as std's.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    /** 5489 is std::mt19937_64's default seed. */
    explicit Mt19937_64(result_type seed = 5489u) { x_[0] = seed; }

    /** Copies only the state words computed so far. */
    Mt19937_64(const Mt19937_64 &other) { *this = other; }

    Mt19937_64 &
    operator=(const Mt19937_64 &other)
    {
        for (size_t i = 0; i < other.seeded_; ++i)
            x_[i] = other.x_[i];
        p_ = other.p_;
        twisted_ = other.twisted_;
        seeded_ = other.seeded_;
        return *this;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type
    operator()()
    {
        if (p_ >= twisted_) [[unlikely]]
            refill();
        result_type z = x_[p_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

    /**
     * Writes the 312 state words and the position as
     * std::mt19937_64's operator<< does (libstdc++ format).
     */
    friend std::ostream &operator<<(std::ostream &os, const Mt19937_64 &e);

    /**
     * Reads the libstdc++ text. Sets failbit, leaving @p e unchanged,
     * when the text is short, malformed, or has a position above 312.
     */
    friend std::istream &operator>>(std::istream &is, Mt19937_64 &e);

  private:
    static constexpr size_t kN = 312;
    static constexpr size_t kM = 156;

    static uint64_t
    twist(uint64_t hi, uint64_t lo)
    {
        const uint64_t upper = ~uint64_t(0) << 31;
        uint64_t y = (hi & upper) | (lo & ~upper);
        return (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
    }

    /** Runs the seeding recurrence up to @p n words. */
    void
    extendTo(size_t n)
    {
        for (size_t i = seeded_; i < n; ++i) {
            const uint64_t prev = x_[i - 1];
            x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
        }
        seeded_ = uint32_t(n);
    }

    /** Twists x[k..311], in the order of libstdc++'s _M_gen_rand. */
    void
    twistFrom(size_t k)
    {
        for (; k < kN - kM; ++k)
            x_[k] = x_[k + kM] ^ twist(x_[k], x_[k + 1]);
        for (; k < kN - 1; ++k)
            x_[k] = x_[k - (kN - kM)] ^ twist(x_[k], x_[k + 1]);
        x_[kN - 1] = x_[kM - 1] ^ twist(x_[kN - 1], x_[0]);
    }

    /** Makes x[p_] the next twisted output. */
    void
    refill()
    {
        if (seeded_ < kN) {
            // First block, lazily: twist element twisted_ alone.
            const size_t k = twisted_;
            extendTo(k + kM + 1);
            x_[k] = x_[k + kM] ^ twist(x_[k], x_[k + 1]);
            p_ = uint32_t(k);
            twisted_ = uint32_t(k + 1);
            if (seeded_ < kN)
                return;
            twistFrom(twisted_);
        } else {
            twistFrom(0);
            p_ = 0;
        }
        twisted_ = kN;
    }

    /**
     * x[0, seeded_) are valid; x[0, twisted_) hold the current block's
     * twisted words and x[twisted_, seeded_) raw recurrence words.
     * p_ is std's position: 312 after seeding, then the index of the
     * next output. Below 312 words, p_ == twisted_ between draws.
     */
    uint64_t x_[kN];
    uint32_t p_ = kN;
    uint32_t twisted_ = 0;
    uint32_t seeded_ = 1;
};

/**
 * A small deterministic RNG wrapper around Mt19937_64 with
 * convenience draws for the distributions the library needs. A fresh
 * Rng costs only the draws made from it, so per-item streams
 * (FaultInjector::stream, mixSeed) are cheap.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

    /** Uniform in [0, 1). */
    double uniform() { return unit_(engine_); }

    /** Uniform in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
    }

    /** Standard normal scaled by @p stddev around @p mean. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Laplace(0, b) draw — typical of trained DNN weights. */
    double
    laplace(double b = 1.0)
    {
        double u = uniform() - 0.5;
        double s = u < 0 ? -1.0 : 1.0;
        return -b * s * std::log(1.0 - 2.0 * std::abs(u));
    }

    /** Fill a vector with Gaussian draws. */
    std::vector<float>
    gaussianVector(size_t n, double mean = 0.0, double stddev = 1.0)
    {
        std::vector<float> out(n);
        for (auto &v : out)
            v = static_cast<float>(gaussian(mean, stddev));
        return out;
    }

    Mt19937_64 &engine() { return engine_; }

  private:
    Mt19937_64 engine_;
    std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

} // namespace rapid

#endif // RAPID_COMMON_RANDOM_HH
