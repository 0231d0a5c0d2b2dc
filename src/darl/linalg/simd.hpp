// darl/linalg/simd.hpp
//
// What every exact SIMD kernel shares (DESIGN.md §16): a generic four-lane
// double vector, and the attribute that compiles one kernel body for AVX2
// and for the baseline ISA with the copy picked once, when the program
// loads. Lane-wise `+ - * /` and sqrt round exactly like
// their scalar forms, and every darl target builds with
// -ffp-contract=off, so a kernel written over V4d gives the same bits in
// both copies as the scalar loop it replaces.

#pragma once

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define DARL_SIMD_X86 1
#else
#define DARL_SIMD_X86 0
#endif

// A ThreadSanitizer build cannot run an ifunc resolver: the loader calls
// it before the sanitizer runtime is up, and the instrumented resolver
// crashes. That tree compiles the baseline copy only; races do not depend
// on the ISA.
#if defined(__SANITIZE_THREAD__)
#define DARL_SIMD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DARL_SIMD_TSAN 1
#endif
#endif

#if DARL_SIMD_X86 && !defined(DARL_SIMD_TSAN)
/// Compile the function for AVX2 (no FMA) and the baseline ISA; the
/// loader's ifunc resolver picks one per process.
#define DARL_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define DARL_SIMD_CLONES
#endif

/// Kernel helpers are forced inline so that each compiled copy of the
/// kernel that calls them gets them in its own ISA.
#define DARL_SIMD_INLINE inline __attribute__((always_inline))

/// Fully unroll a loop over tile rows, vectors or lanes, so that a tile of
/// accumulators lives in registers at every optimization level.
#define DARL_SIMD_UNROLL _Pragma("GCC unroll 8")

namespace darl::simd {

/// Four doubles in one vector register (two on the baseline ISA).
typedef double V4d __attribute__((vector_size(4 * sizeof(double))));

}  // namespace darl::simd
