/**
 * @file
 * Host fingerprint printed with every result: the CPU model (from
 * CPUID, no file reads), the CPUs this process may run on, the
 * active SIMD kernel level, the build type, and the
 * SRBENES_DISABLE_SIMD override.
 */

#include <cpuid.h>
#include <sched.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"
#include "core/fast_kernels.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{
namespace
{

std::string
cpuModel()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                    &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                    &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
}

int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

} // namespace

std::string
hostFingerprint()
{
    const char *nosimd = std::getenv("SRBENES_DISABLE_SIMD");
    std::string s = "cpu=\"" + cpuModel() + "\"";
    s += " nproc=" + std::to_string(usableCpus());
    s += " simd=";
    s += srbenes::simdLevelName(srbenes::activeSimdLevel());
    s += " build=" PERFBENCH_BUILD_TYPE;
    s += " SRBENES_DISABLE_SIMD=";
    s += nosimd != nullptr ? nosimd : "unset";
    return s;
}

} // namespace perfbench
