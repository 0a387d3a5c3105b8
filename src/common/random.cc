#include "common/random.hh"

#include <istream>
#include <ostream>

namespace rapid {

std::ostream &
operator<<(std::ostream &os, const Mt19937_64 &e)
{
    // Finish any lazy seeding on a copy: the text is std's state after
    // the same draws, i.e. all 312 recurrence words, twisted once a
    // draw has been made.
    Mt19937_64 full = e;
    if (full.seeded_ < Mt19937_64::kN) {
        full.extendTo(Mt19937_64::kN);
        if (full.twisted_ > 0)
            full.twistFrom(full.twisted_);
    }

    const std::ios_base::fmtflags flags = os.flags();
    const char fill = os.fill();
    os.flags(std::ios_base::dec | std::ios_base::fixed |
             std::ios_base::left);
    os.fill(' ');
    for (size_t i = 0; i < Mt19937_64::kN; ++i)
        os << full.x_[i] << ' ';
    os << full.p_;
    os.flags(flags);
    os.fill(fill);
    return os;
}

std::istream &
operator>>(std::istream &is, Mt19937_64 &e)
{
    const std::ios_base::fmtflags flags = is.flags();
    is.flags(std::ios_base::dec | std::ios_base::skipws);
    Mt19937_64 read;
    for (size_t i = 0; i < Mt19937_64::kN; ++i)
        is >> read.x_[i];
    size_t p = 0;
    is >> p;
    is.flags(flags);
    if (!is)
        return is;
    if (p > Mt19937_64::kN) {
        is.setstate(std::ios_base::failbit);
        return is;
    }
    read.p_ = uint32_t(p);
    read.twisted_ = Mt19937_64::kN;
    read.seeded_ = Mt19937_64::kN;
    e = read;
    return is;
}

} // namespace rapid
