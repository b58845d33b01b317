#include "compress/codec.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "tensor/check.h"
#include "tensor/dispatch.h"
#include "tensor/tensor.h"

namespace adafl::compress {

namespace {

constexpr std::int64_t kHeaderBytes = 8;  // kind + dense_size on the wire

std::int64_t bits_to_bytes(std::int64_t bits) { return (bits + 7) / 8; }

}  // namespace

std::vector<float> EncodedGradient::decode() const {
  std::vector<float> out;
  decode_into(out);
  return out;
}

void EncodedGradient::decode_into(std::vector<float>& out) const {
  out.assign(static_cast<std::size_t>(dense_size), 0.0f);
  switch (kind) {
    case CodecKind::kIdentity:
      ADAFL_CHECK(static_cast<std::int64_t>(values.size()) == dense_size);
      std::copy(values.begin(), values.end(), out.begin());
      break;
    case CodecKind::kTopK:
      ADAFL_CHECK(indices.size() == values.size());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        ADAFL_CHECK(indices[i] < out.size());
        out[indices[i]] = values[i];
      }
      break;
    case CodecKind::kQsgd:
    case CodecKind::kTernary:
      ADAFL_CHECK(static_cast<std::int64_t>(levels.size()) == dense_size);
      tensor::active_kernels().qsgd_unpack(
          levels.data(), scale,
          kind == CodecKind::kQsgd
              ? static_cast<float>(std::max(quant_levels, 1))
              : 1.0f,
          out.data(), dense_size);
      break;
  }
}

double EncodedGradient::compression_ratio() const {
  ADAFL_CHECK_MSG(wire_bytes > 0, "compression_ratio: empty message");
  return static_cast<double>(dense_size) * 4.0 /
         static_cast<double>(wire_bytes);
}

EncodedGradient IdentityCodec::encode(std::span<const float> grad,
                                      Rng& /*rng*/) {
  EncodedGradient e;
  e.kind = CodecKind::kIdentity;
  e.dense_size = static_cast<std::int64_t>(grad.size());
  e.values.assign(grad.begin(), grad.end());
  e.wire_bytes = kHeaderBytes + e.dense_size * 4;
  return e;
}

TopKCodec::TopKCodec(double ratio) : ratio_(ratio) {
  ADAFL_CHECK_MSG(ratio >= 1.0, "TopKCodec: ratio must be >= 1");
}

EncodedGradient TopKCodec::encode(std::span<const float> grad, Rng& /*rng*/) {
  const std::int64_t n = static_cast<std::int64_t>(grad.size());
  const std::int64_t k =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                    static_cast<double>(n) / ratio_));
  return encode_top_k(grad, k);
}

std::string TopKCodec::name() const {
  return "topk(1/" + std::to_string(static_cast<int>(ratio_)) + ")";
}

QsgdCodec::QsgdCodec(int levels) : levels_(levels) {
  ADAFL_CHECK_MSG(levels >= 1 && levels <= 127, "QsgdCodec: levels in [1,127]");
}

EncodedGradient QsgdCodec::encode(std::span<const float> grad, Rng& rng) {
  EncodedGradient e;
  e.kind = CodecKind::kQsgd;
  e.dense_size = static_cast<std::int64_t>(grad.size());
  e.quant_levels = levels_;
  const double norm = tensor::l2_norm(grad);
  e.scale = static_cast<float>(norm);
  e.levels.resize(grad.size());
  if (norm > 0.0) {
    // The magnitude ratios |g_i|/norm * s vectorize (kernel table); the
    // stochastic-rounding draw stays a sequential loop because each element
    // consumes the next rng value in order — that sequence is the
    // reproducibility contract of the codec.
    ratios_.resize(grad.size());
    tensor::active_kernels().qsgd_ratios(
        grad.data(), norm, static_cast<double>(levels_), ratios_.data(),
        static_cast<std::int64_t>(grad.size()));
    for (std::size_t i = 0; i < grad.size(); ++i) {
      const double r = ratios_[i];  // in [0, s]
      const double lo = std::floor(r);
      const double hi_prob = r - lo;
      double q = lo + (rng.bernoulli(hi_prob) ? 1.0 : 0.0);
      if (grad[i] < 0) q = -q;
      e.levels[i] = static_cast<std::int8_t>(q);
    }
  }
  // ceil(log2(2s+1)) bits per element + 4-byte scale.
  const std::int64_t bits_per =
      static_cast<std::int64_t>(std::ceil(std::log2(2.0 * levels_ + 1.0)));
  e.wire_bytes = kHeaderBytes + 4 + bits_to_bytes(e.dense_size * bits_per);
  return e;
}

std::string QsgdCodec::name() const {
  return "qsgd(s=" + std::to_string(levels_) + ")";
}

EncodedGradient TernaryCodec::encode(std::span<const float> grad, Rng& rng) {
  EncodedGradient e;
  e.kind = CodecKind::kTernary;
  e.dense_size = static_cast<std::int64_t>(grad.size());
  float mx = 0.0f;
  for (float v : grad) mx = std::max(mx, std::abs(v));
  e.scale = mx;
  e.levels.resize(grad.size());
  if (mx > 0.0f) {
    for (std::size_t i = 0; i < grad.size(); ++i) {
      const double p = std::abs(grad[i]) / mx;
      std::int8_t b = rng.bernoulli(p) ? 1 : 0;
      if (grad[i] < 0) b = static_cast<std::int8_t>(-b);
      e.levels[i] = b;
    }
  }
  e.wire_bytes = kHeaderBytes + 4 + bits_to_bytes(e.dense_size * 2);
  return e;
}

std::vector<std::uint32_t> top_k_by_magnitude(std::span<const float> values,
                                              std::int64_t k) {
  std::vector<std::uint32_t> out, scratch;
  top_k_by_magnitude_into(values, k, out, scratch);
  return out;
}

void top_k_by_magnitude_into(std::span<const float> values, std::int64_t k,
                             std::vector<std::uint32_t>& out,
                             std::vector<std::uint32_t>& scratch) {
  const std::int64_t n = static_cast<std::int64_t>(values.size());
  ADAFL_CHECK_MSG(k >= 1 && k <= n, "top_k_by_magnitude: k=" << k << " n=" << n);
  const auto& kt = tensor::active_kernels();
  // Selection runs on |value| bit patterns: clearing the sign bit of an IEEE
  // float yields an unsigned integer that orders exactly like the magnitude,
  // so the threshold split below is pure integer work (and SIMD-friendly).
  scratch.resize(static_cast<std::size_t>(n));
  kt.abs_bits(values.data(), scratch.data(), n);
  // The k-th largest magnitude is the selection threshold. nth_element may
  // reorder scratch freely — the scans below re-derive bits from `values`.
  std::nth_element(scratch.begin(), scratch.begin() + (k - 1), scratch.end(),
                   std::greater<std::uint32_t>());
  const std::uint32_t threshold = scratch[static_cast<std::size_t>(k - 1)];
  // Everything strictly above the threshold is selected; ties AT the
  // threshold fill the remaining slots in ascending index order. That
  // reproduces the historical rule exactly — magnitude descending, ties
  // toward the lower index — so the selected *set* (and the wire bytes) is
  // identical across backends and standard libraries. scratch is free once
  // the threshold is read, so the scans write there.
  const std::int64_t above = kt.scan_abs_gt(values.data(), n, threshold,
                                            scratch.data());
  const std::int64_t ties = kt.scan_abs_eq(values.data(), n, threshold,
                                           scratch.data() + above, k - above);
  ADAFL_CHECK_MSG(above + ties == k, "top_k_by_magnitude: selected "
                                         << above + ties << " of " << k);
  // Both scans emit ascending indices; merging them gives the canonical
  // ascending on-wire order (no allocation).
  out.resize(static_cast<std::size_t>(k));
  std::merge(scratch.begin(), scratch.begin() + above, scratch.begin() + above,
             scratch.begin() + k, out.begin());
}

EncodedGradient encode_top_k(std::span<const float> values, std::int64_t k) {
  EncodedGradient e;
  std::vector<std::uint32_t> scratch;
  encode_top_k_into(values, k, e, scratch);
  return e;
}

void encode_top_k_into(std::span<const float> values, std::int64_t k,
                       EncodedGradient& out,
                       std::vector<std::uint32_t>& scratch) {
  out.kind = CodecKind::kTopK;
  out.dense_size = static_cast<std::int64_t>(values.size());
  out.levels.clear();
  out.scale = 1.0f;
  out.quant_levels = 0;
  top_k_by_magnitude_into(values, k, out.indices, scratch);
  out.values.clear();
  out.values.reserve(out.indices.size());
  for (auto i : out.indices) out.values.push_back(values[i]);
  // 4-byte index + 4-byte value per entry.
  out.wire_bytes =
      kHeaderBytes + static_cast<std::int64_t>(out.indices.size()) * 8;
}

}  // namespace adafl::compress
