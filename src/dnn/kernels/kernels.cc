#include "dnn/kernels/kernels.h"

#include "dnn/kernels/backends.h"

namespace cannikin::dnn::kernels {

const KernelBackend& kernel(KernelKind kind) {
  switch (kind) {
    case KernelKind::kNaive:
      return detail::naive_backend();
    case KernelKind::kOptimized:
      return detail::optimized_backend();
  }
  return detail::naive_backend();
}

const char* kernel_kind_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kNaive:
      return "naive";
    case KernelKind::kOptimized:
      return "optimized";
  }
  return "naive";
}

const Context& default_context() {
  static const Context ctx{};  // naive backend, heap memory
  return ctx;
}

}  // namespace cannikin::dnn::kernels
