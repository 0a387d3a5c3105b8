// Fixture: the engine inside rapid::Rng is private to
// common/random.*; code elsewhere that names it (under any
// qualification) bypasses the seeded, mixSeed-keyed Rng streams.
#include <cstdint>

#include "common/random.hh"

uint64_t
drawFaultWord(uint64_t seed)
{
    rapid::Mt19937_64 engine(seed);
    return engine();
}
