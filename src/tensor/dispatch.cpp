#include "tensor/dispatch.h"

#include <atomic>
#include <cstdlib>

#include "tensor/check.h"

#if defined(__x86_64__) || defined(__i386__)
#define ADAFL_X86 1
#else
#define ADAFL_X86 0
#endif

namespace adafl::tensor {

// Defined in kernels_avx2.cpp; returns nullptr when the backend was compiled
// out (non-x86 target or a toolchain without -mavx2 -mfma -mpclmul support).
const KernelTable* avx2_kernel_table_or_null();

namespace {

// Active table + backend. The table pointer is what the hot path reads; the
// backend enum rides along for reporting. Both only ever transition between
// fully-built static tables, so a torn read is impossible.
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_backend{static_cast<int>(KernelBackend::kScalar)};

void store_backend(KernelBackend b, const KernelTable* t) {
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  g_table.store(t, std::memory_order_release);
}

// First-use resolution of ADAFL_KERNEL_BACKEND. Runs at most once (thread-safe
// via the magic-static); an explicit set_kernel_backend() beforehand wins
// because it already published a table.
void ensure_initialized() {
  static const bool done = [] {
    if (g_table.load(std::memory_order_acquire) == nullptr) {
      const char* env = std::getenv("ADAFL_KERNEL_BACKEND");
      if (env != nullptr && env[0] != '\0')
        set_kernel_backend(resolve_kernel_backend(env));
      else
        store_backend(KernelBackend::kScalar, &scalar_kernel_table());
    }
    return true;
  }();
  (void)done;
}

}  // namespace

bool cpu_supports_avx2() {
#if ADAFL_X86 && defined(__GNUC__)
  return avx2_kernel_table_or_null() != nullptr &&
         __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

std::string cpu_feature_string() {
  std::string s;
#if ADAFL_X86 && defined(__GNUC__)
  const auto append = [&s](const char* name) {
    if (!s.empty()) s += ',';
    s += name;
  };
  if (__builtin_cpu_supports("sse2")) append("sse2");
  if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
  if (__builtin_cpu_supports("avx")) append("avx");
  if (__builtin_cpu_supports("avx2")) append("avx2");
  if (__builtin_cpu_supports("fma")) append("fma");
  if (__builtin_cpu_supports("pclmul")) append("pclmul");
  if (__builtin_cpu_supports("avx512f")) append("avx512f");
#endif
  if (s.empty()) s = "none";
  return s;
}

KernelBackend kernel_backend() {
  ensure_initialized();
  return static_cast<KernelBackend>(g_backend.load(std::memory_order_relaxed));
}

const KernelTable& active_kernels() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    ensure_initialized();
    t = g_table.load(std::memory_order_acquire);
  }
  return *t;
}

void set_kernel_backend(KernelBackend b) {
  switch (b) {
    case KernelBackend::kScalar:
      store_backend(b, &scalar_kernel_table());
      return;
    case KernelBackend::kAvx2: {
      ADAFL_CHECK_MSG(cpu_supports_avx2(),
                      "kernel backend 'avx2' requested but this CPU/build "
                      "does not support AVX2+FMA+PCLMUL (features: "
                          << cpu_feature_string() << ")");
      store_backend(b, avx2_kernel_table_or_null());
      return;
    }
  }
  ADAFL_CHECK_MSG(false, "unknown kernel backend "
                             << static_cast<int>(b));
}

KernelBackend resolve_kernel_backend(const std::string& name) {
  if (name.empty() || name == "auto")
    return cpu_supports_avx2() ? KernelBackend::kAvx2 : KernelBackend::kScalar;
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") {
    ADAFL_CHECK_MSG(cpu_supports_avx2(),
                    "kernel backend 'avx2' requested but this CPU/build does "
                    "not support AVX2+FMA+PCLMUL (features: "
                        << cpu_feature_string()
                        << "); use --kernel-backend=auto for best-available");
    return KernelBackend::kAvx2;
  }
  ADAFL_CHECK_MSG(false, "unknown kernel backend '"
                             << name << "' (expected auto|scalar|avx2)");
  return KernelBackend::kScalar;  // unreachable
}

const char* kernel_backend_name(KernelBackend b) {
  return b == KernelBackend::kAvx2 ? "avx2" : "scalar";
}

const char* kernel_backend_name() {
  return kernel_backend_name(kernel_backend());
}

}  // namespace adafl::tensor
