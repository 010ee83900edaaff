#include "nn/flat_mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "math/fastexp.hpp"
#include "util/error.hpp"

namespace ifet {

namespace {

/// Four doubles, one per batch row: a GCC/Clang vector type, which the
/// compiler maps to one AVX2 register (two SSE2 registers without AVX2).
/// Its operators are lane-wise IEEE ops, never fused under
/// -ffp-contract=off, so each lane runs the scalar chain bit for bit.
typedef double Lanes __attribute__((vector_size(4 * sizeof(double))));

/// Batch rows whose accumulator chains run_tile holds in registers across
/// a whole input loop (four Lanes).
constexpr int kBlockRows = 16;

/// Same formulas as Mlp::activate — the sigmoid goes through the shared
/// branch-free fast_sigmoid (math/fastexp.hpp) so flat and scalar paths
/// produce the same doubles while this batched loop can vectorize it.
inline double activate(double x, Activation a) {
  switch (a) {
    case Activation::kSigmoid:
      return fast_sigmoid(x);
    case Activation::kTanh:
      return std::tanh(x);
  }
  return 0.0;
}

}  // namespace

FlatMlp::FlatMlp(const Mlp& source) {
  layer_sizes_ = source.layer_sizes();
  IFET_REQUIRE(layer_sizes_.size() >= 2,
               "FlatMlp: source Mlp is uninitialized");
  const auto& weights = source.weights();
  const auto& biases = source.biases();
  IFET_REQUIRE(weights.size() + 1 == layer_sizes_.size() &&
                   biases.size() == weights.size(),
               "FlatMlp: source weight/bias layer count mismatch");
  layers_.resize(weights.size());
  max_width_ = *std::max_element(layer_sizes_.begin(), layer_sizes_.end());
  for (std::size_t l = 0; l < weights.size(); ++l) {
    Layer& layer = layers_[l];
    layer.fan_in = layer_sizes_[l];
    layer.fan_out = layer_sizes_[l + 1];
    const bool output_layer = (l + 1 == weights.size());
    layer.activation =
        output_layer ? Activation::kSigmoid : source.hidden_activation();
    IFET_REQUIRE(weights[l].size() == static_cast<std::size_t>(layer.fan_out),
                 "FlatMlp: fan-out mismatch in source layer");
    const std::size_t stride = static_cast<std::size_t>(layer.fan_in) + 1;
    layer.weights.resize(static_cast<std::size_t>(layer.fan_out) * stride);
    for (int j = 0; j < layer.fan_out; ++j) {
      const auto& row = weights[l][static_cast<std::size_t>(j)];
      IFET_REQUIRE(row.size() == static_cast<std::size_t>(layer.fan_in),
                   "FlatMlp: fan-in mismatch in source layer");
      double* dst = layer.weights.data() + static_cast<std::size_t>(j) * stride;
      std::copy(row.begin(), row.end(), dst);
      dst[layer.fan_in] = biases[l][static_cast<std::size_t>(j)];
    }
  }
  source_hash_ = source.params_hash();
}

int FlatMlp::num_inputs() const {
  IFET_REQUIRE(valid(), "FlatMlp is uninitialized");
  return layer_sizes_.front();
}

int FlatMlp::num_outputs() const {
  IFET_REQUIRE(valid(), "FlatMlp is uninitialized");
  return layer_sizes_.back();
}

IFET_HOT void FlatMlp::run_tile(const double* cols, std::size_t col_stride,
                                int rows, double* dst,
                                Scratch& scratch) const {
  // Layer 0 reads the caller's columns (arbitrary stride: the raw
  // column-major feature buffer, or the transpose staged in scratch.a);
  // every later layer reads the previous kTileRows-stride scratch tile.
  // Outputs alternate b, a, b, ... so the input tile — which may alias
  // scratch.a — is only overwritten after layer 0 consumed it.
  const double* act = cols;
  std::size_t act_stride = col_stride;
  double* bufs[2] = {scratch.b.data(), scratch.a.data()};
  int which = 0;

  for (const Layer& layer : layers_) {
    double* next = bufs[which];
    const std::size_t stride = static_cast<std::size_t>(layer.fan_in) + 1;
    for (int j = 0; j < layer.fan_out; ++j) {
      const double* wrow =
          layer.weights.data() + static_cast<std::size_t>(j) * stride;
      // Bias first, then inputs in ascending order: the exact
      // accumulation chain of Mlp::run_forward, one independent chain
      // per batch row (the vectorizable dimension). A block of kBlockRows
      // chains stays in registers across the whole input loop; rows past
      // the last full block run the same chain one at a time.
      double acc[kTileRows];
      const double bias = wrow[layer.fan_in];
      int r0 = 0;
      for (; r0 + kBlockRows <= rows; r0 += kBlockRows) {
        const Lanes start = {bias, bias, bias, bias};
        Lanes block[kBlockRows / 4] = {start, start, start, start};
        for (int i = 0; i < layer.fan_in; ++i) {
          const Lanes w = {wrow[i], wrow[i], wrow[i], wrow[i]};
          const double* col =
              act + static_cast<std::size_t>(i) * act_stride + r0;
          for (int v = 0; v < kBlockRows / 4; ++v) {
            Lanes x = {};
            std::memcpy(&x, col + 4 * v, sizeof x);
            block[v] += w * x;
          }
        }
        std::memcpy(acc + r0, block, sizeof block);
      }
      for (int r = r0; r < rows; ++r) {
        double sum = bias;
        for (int i = 0; i < layer.fan_in; ++i) {
          sum += wrow[i] * act[static_cast<std::size_t>(i) * act_stride +
                               static_cast<std::size_t>(r)];
        }
        acc[r] = sum;
      }
      double* outcol = next + static_cast<std::size_t>(j) * kTileRows;
      if (layer.activation == Activation::kSigmoid) {
        // Dedicated branch-free loop: fast_sigmoid is a fixed IEEE op
        // sequence, so this vectorizes lane-parallel and still matches
        // the scalar path bit for bit.
        for (int r = 0; r < rows; ++r) outcol[r] = fast_sigmoid(acc[r]);
      } else {
        for (int r = 0; r < rows; ++r) {
          outcol[r] = activate(acc[r], layer.activation);
        }
      }
    }
    act = next;
    act_stride = kTileRows;
    which ^= 1;
  }

  // `act` now holds the output layer column-major; scatter it back to
  // the caller's row-major layout.
  const int out_w = layer_sizes_.back();
  for (int j = 0; j < out_w; ++j) {
    const double* col = act + static_cast<std::size_t>(j) * kTileRows;
    for (int r = 0; r < rows; ++r) {
      dst[static_cast<std::size_t>(r) * out_w + j] = col[r];
    }
  }
}

IFET_HOT IFET_DETERMINISTIC void FlatMlp::forward_batch(const double* in, int n, double* out,
                                     Scratch& scratch) const {
  IFET_HOT_ALLOW("batch-entry precondition, once per batch before the tiles");
  IFET_REQUIRE(valid() && n >= 0, "FlatMlp::forward_batch: invalid engine or "
                                  "negative batch size");
  if (n == 0) return;
  IFET_HOT_ALLOW("batch-entry precondition, once per batch before the tiles");
  IFET_REQUIRE(in != nullptr && out != nullptr,
               "FlatMlp::forward_batch: null batch buffer");
  const std::size_t tile_doubles =
      static_cast<std::size_t>(max_width_) * kTileRows;
  scratch.ensure(tile_doubles);

  const int in_w = layer_sizes_.front();
  const int out_w = layer_sizes_.back();
  for (int r0 = 0; r0 < n; r0 += kTileRows) {
    const int rows = std::min(kTileRows, n - r0);

    // Transpose the input tile to column-major [feature][row] so every
    // accumulation loop in run_tile runs unit-stride across rows.
    double* staged = scratch.a.data();
    const double* src = in + static_cast<std::size_t>(r0) * in_w;
    for (int i = 0; i < in_w; ++i) {
      double* col = staged + static_cast<std::size_t>(i) * kTileRows;
      for (int r = 0; r < rows; ++r) {
        col[r] = src[static_cast<std::size_t>(r) * in_w + i];
      }
    }

    run_tile(staged, kTileRows, rows,
             out + static_cast<std::size_t>(r0) * out_w, scratch);
  }
}

IFET_HOT IFET_DETERMINISTIC void FlatMlp::forward_batch_cols(const double* in, int ld, int n,
                                          double* out,
                                          Scratch& scratch) const {
  IFET_HOT_ALLOW("batch-entry precondition, once per batch before the tiles");
  IFET_REQUIRE(valid() && n >= 0,
               "FlatMlp::forward_batch_cols: invalid engine or negative "
               "batch size");
  if (n == 0) return;
  IFET_HOT_ALLOW("batch-entry precondition, once per batch before the tiles");
  IFET_REQUIRE(in != nullptr && out != nullptr && ld >= n,
               "FlatMlp::forward_batch_cols: null batch buffer or ld "
               "shorter than batch");
  const std::size_t tile_doubles =
      static_cast<std::size_t>(max_width_) * kTileRows;
  scratch.ensure(tile_doubles);

  // The input already IS column-major, so each tile's columns are just
  // offset views at stride ld — no transpose pass at all.
  const int out_w = layer_sizes_.back();
  for (int r0 = 0; r0 < n; r0 += kTileRows) {
    const int rows = std::min(kTileRows, n - r0);
    run_tile(in + r0, static_cast<std::size_t>(ld), rows,
             out + static_cast<std::size_t>(r0) * out_w, scratch);
  }
}

std::shared_ptr<const FlatMlp> FlatMlpCache::get(const Mlp& network) const {
  const std::uint64_t h = network.params_hash();
  {
    OrderedMutexLock lock(mutex_);
    if (flat_ != nullptr && hash_ == h) return flat_;
  }
  // Snapshot outside the lock (see the header comment): the weight copy
  // reads caller-owned state and can be milliseconds for a wide network.
  auto built = std::make_shared<const FlatMlp>(network);
  OrderedMutexLock lock(mutex_);
  if (flat_ == nullptr || hash_ != h) {
    flat_ = std::move(built);
    hash_ = h;
    ++rebuilds_;
  }
  return flat_;
}

std::size_t FlatMlpCache::rebuilds() const {
  OrderedMutexLock lock(mutex_);
  return rebuilds_;
}

}  // namespace ifet
