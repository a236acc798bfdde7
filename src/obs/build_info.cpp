// Build identity for the ocps_build_info exposition. It describes the
// binary, so it holds whether or not obs is recording.
#include <atomic>

#include "obs/obs.hpp"

// The short git sha is baked in at configure time (src/obs/CMakeLists).
#ifndef OCPS_GIT_SHA
#define OCPS_GIT_SHA "unknown"
#endif

namespace ocps::obs {

namespace {

std::atomic<const char* (*)()>& simd_provider() {
  static std::atomic<const char* (*)()> provider{nullptr};
  return provider;
}

const char* compiler_string() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#elif defined(_MSC_VER)
  return "msvc";
#else
  return "unknown";
#endif
}

}  // namespace

void set_simd_kernel_provider(const char* (*provider)()) {
  simd_provider().store(provider, std::memory_order_release);
}

BuildInfo build_info() {
  BuildInfo info;
  info.git_sha = OCPS_GIT_SHA;
  info.compiler = compiler_string();
  const char* (*provider)() = simd_provider().load(std::memory_order_acquire);
  const char* kernel = provider ? provider() : nullptr;
  info.simd_kernel = kernel ? kernel : "unknown";
  return info;
}

}  // namespace ocps::obs
