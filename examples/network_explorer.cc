/**
 * @file
 * Interactive permutation explorer: give it a permutation as a
 * comma-separated destination list (power-of-two length) and it
 * reports every class membership (F, BPC with recovered A-vector,
 * omega, inverse omega), renders the self-routing attempt, and shows
 * the omega-bit and Waksman rescues when self-routing fails.
 *
 * Build & run:
 *   ./build/examples/network_explorer 1,3,2,0
 *   ./build/examples/network_explorer 0,4,2,6,1,5,3,7
 *   ./build/examples/network_explorer            (random demo)
 */

#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "srbenes.hh"

namespace
{

using namespace srbenes;

std::vector<Word>
parseList(const std::string &arg)
{
    std::vector<Word> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(std::strtoull(item.c_str(), nullptr, 10));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace srbenes;

    std::vector<Word> dest;
    if (argc > 1) {
        dest = parseList(argv[1]);
    } else {
        std::cout << "(no argument: exploring a random member of "
                     "F(3); pass e.g. 1,3,2,0)\n\n";
        Prng prng(2026);
        dest = randomFMember(3, prng).dest();
    }

    const std::optional<Permutation> parsed =
        Permutation::tryFrom(std::move(dest));
    if (!parsed) {
        std::cerr << "not a permutation of 0..N-1\n";
        return 1;
    }
    if (!isPowerOfTwo(parsed->size())) {
        std::cerr << "length must be a power of two\n";
        return 1;
    }

    const Permutation &d = *parsed;
    const unsigned n = d.log2Size();
    std::cout << "D = " << d.toString() << ", N = " << d.size()
              << ", n = " << n << "\n\nclass membership:\n";
    std::cout << "  F(n)          : " << std::boolalpha
              << inFClass(d) << "\n";
    const auto bpc = recognizeBpc(d);
    std::cout << "  BPC(n)        : " << bpc.has_value();
    if (bpc)
        std::cout << "  A = " << bpc->toString();
    std::cout << "\n";
    std::cout << "  Omega(n)      : " << isOmega(d) << "\n";
    std::cout << "  InverseOmega  : " << isInverseOmega(d) << "\n\n";

    const SelfRoutingBenes net(n);
    RouteTrace trace;
    const auto res = net.route(d, RoutingMode::SelfRouting, &trace);
    std::cout << renderRoute(net.topology(), trace, res);

    if (!res.success) {
        std::cout << "\nrescues:\n";
        std::cout << "  omega bit    : "
                  << net.route(d, RoutingMode::OmegaBit).success
                  << "\n";
        const auto states = waksmanSetup(net.topology(), d);
        std::cout << "  waksman setup: "
                  << net.routeWithStates(d, states).success << "\n";
    }
    return 0;
}
