#include "perm/permutation.hh"

#include <cstdint>
#include <memory>
#include <numeric>

#include "common/logging.hh"

namespace srbenes
{

Permutation
Permutation::identity(std::size_t n)
{
    std::vector<Word> d(n);
    std::iota(d.begin(), d.end(), Word{0});
    return Permutation(std::move(d));
}

Permutation
Permutation::random(std::size_t n, Prng &prng)
{
    std::vector<Word> d(n);
    std::iota(d.begin(), d.end(), Word{0});
    // Fisher-Yates with our deterministic generator.
    for (std::size_t i = n; i > 1; --i)
        std::swap(d[i - 1], d[prng.below(i)]);
    return Permutation(std::move(d));
}

namespace
{

Permutation
validOrFatal(std::vector<Word> dest)
{
    const std::size_t n = dest.size();
    std::optional<Permutation> p = Permutation::tryFrom(std::move(dest));
    if (!p)
        fatal("vector of size %zu is not a permutation of 0..N-1", n);
    return std::move(*p);
}

} // namespace

Permutation::Permutation(std::vector<Word> dest)
    : Permutation(validOrFatal(std::move(dest)))
{
}

Permutation::Permutation(std::initializer_list<Word> dest)
    : Permutation(std::vector<Word>(dest))
{
}

std::optional<Permutation>
Permutation::tryFrom(std::vector<Word> dest)
{
    if (!isValid(dest))
        return std::nullopt;
    return Permutation(std::move(dest), Validated{});
}

bool
Permutation::isValid(const std::vector<Word> &dest)
{
    const std::size_t n = dest.size();
    if (n == 0)
        return false;
    // Byte marks and one OR of the duplicate flags: the only branch
    // left in the loop is the (predictable) range check.
    const auto seen = std::make_unique<std::uint8_t[]>(n);
    std::uint8_t dup = 0;
    for (Word d : dest) {
        if (d >= n)
            return false;
        dup |= seen[d];
        seen[d] = 1;
    }
    return dup == 0;
}

unsigned
Permutation::log2Size() const
{
    return exactLog2(static_cast<Word>(dest_.size()));
}

Permutation
Permutation::inverse() const
{
    std::vector<Word> inv(dest_.size());
    for (std::size_t i = 0; i < dest_.size(); ++i)
        inv[dest_[i]] = static_cast<Word>(i);
    return Permutation(std::move(inv));
}

Permutation
Permutation::then(const Permutation &other) const
{
    if (other.size() != size())
        fatal("composing permutations of sizes %zu and %zu", size(),
              other.size());
    std::vector<Word> out(dest_.size());
    for (std::size_t i = 0; i < dest_.size(); ++i)
        out[i] = other.dest_[dest_[i]];
    return Permutation(std::move(out));
}

std::string
Permutation::toString() const
{
    std::string s = "(";
    for (std::size_t i = 0; i < dest_.size(); ++i) {
        if (i)
            s += ", ";
        s += std::to_string(dest_[i]);
    }
    s += ")";
    return s;
}

} // namespace srbenes
