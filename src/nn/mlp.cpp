#include "nn/mlp.hpp"

#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "math/fastexp.hpp"
#include "util/error.hpp"
#include "util/hashing.hpp"

namespace ifet {

Mlp::Mlp(std::vector<int> layer_sizes, Rng& rng, Activation hidden)
    : layer_sizes_(std::move(layer_sizes)), hidden_activation_(hidden) {
  IFET_REQUIRE(layer_sizes_.size() >= 2,
               "Mlp requires at least input and output layers");
  for (int s : layer_sizes_) {
    IFET_REQUIRE(s > 0, "Mlp layer sizes must be positive");
  }
  const std::size_t num_links = layer_sizes_.size() - 1;
  weights_.resize(num_links);
  biases_.resize(num_links);
  weight_velocity_.resize(num_links);
  bias_velocity_.resize(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    const int fan_in = layer_sizes_[l];
    const int fan_out = layer_sizes_[l + 1];
    const double r = 1.0 / std::sqrt(static_cast<double>(fan_in));
    weights_[l].assign(static_cast<std::size_t>(fan_out),
                       std::vector<double>(static_cast<std::size_t>(fan_in)));
    weight_velocity_[l].assign(
        static_cast<std::size_t>(fan_out),
        std::vector<double>(static_cast<std::size_t>(fan_in), 0.0));
    biases_[l].assign(static_cast<std::size_t>(fan_out), 0.0);
    bias_velocity_[l].assign(static_cast<std::size_t>(fan_out), 0.0);
    for (auto& row : weights_[l]) {
      for (auto& w : row) w = rng.uniform(-r, r);
    }
  }
}

int Mlp::num_inputs() const {
  IFET_REQUIRE(!layer_sizes_.empty(), "Mlp is uninitialized");
  return layer_sizes_.front();
}

int Mlp::num_outputs() const {
  IFET_REQUIRE(!layer_sizes_.empty(), "Mlp is uninitialized");
  return layer_sizes_.back();
}

double Mlp::activate(double x, Activation a) const {
  switch (a) {
    case Activation::kSigmoid:
      // Shared with FlatMlp: both paths evaluate the identical IEEE op
      // sequence (math/fastexp.hpp), which keeps batched classification
      // bitwise equal to this scalar reference.
      return fast_sigmoid(x);
    case Activation::kTanh:
      return std::tanh(x);
  }
  return 0.0;
}

double Mlp::activate_derivative(double fx, Activation a) const {
  // Expressed in terms of the activation value fx = f(x).
  switch (a) {
    case Activation::kSigmoid:
      return fx * (1.0 - fx);
    case Activation::kTanh:
      return 1.0 - fx * fx;
  }
  return 0.0;
}

Mlp::ForwardState Mlp::run_forward(std::span<const double> input) const {
  ForwardState state;
  run_forward_into(input, state);
  return state;
}

void Mlp::run_forward_into(std::span<const double> input,
                           ForwardState& state) const {
  IFET_REQUIRE(static_cast<int>(input.size()) == num_inputs(),
               "Mlp::forward: input size mismatch");
  // Layer-shape invariants: one weight matrix and bias vector per link,
  // with fan-out rows of fan-in columns. Guards against external mutation
  // through mutable_weights()/mutable_biases() corrupting the topology.
  IFET_DEBUG_ASSERT(weights_.size() + 1 == layer_sizes_.size() &&
                        biases_.size() == weights_.size(),
                    "Mlp: weight/bias layer count mismatch");
  for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    IFET_DEBUG_ASSERT(
        weights_[l].size() == static_cast<std::size_t>(layer_sizes_[l + 1]) &&
            biases_[l].size() == weights_[l].size(),
        "Mlp: layer fan-out does not match layer_sizes()");
    IFET_DEBUG_ASSERT(
        weights_[l].empty() ||
            weights_[l].front().size() ==
                static_cast<std::size_t>(layer_sizes_[l]),
        "Mlp: layer fan-in does not match layer_sizes()");
  }
  state.activations.resize(layer_sizes_.size());
  state.activations[0].assign(input.begin(), input.end());
  for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    const bool output_layer = (l + 2 == layer_sizes_.size());
    const Activation act =
        output_layer ? Activation::kSigmoid : hidden_activation_;
    const auto& prev = state.activations[l];
    auto& next = state.activations[l + 1];
    next.resize(static_cast<std::size_t>(layer_sizes_[l + 1]));
    for (std::size_t j = 0; j < next.size(); ++j) {
      double z = biases_[l][j];
      const auto& row = weights_[l][j];
      for (std::size_t i = 0; i < prev.size(); ++i) z += row[i] * prev[i];
      next[j] = activate(z, act);
    }
  }
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
  return run_forward(input).activations.back();
}

double Mlp::forward_scalar(std::span<const double> input) const {
  IFET_REQUIRE(num_outputs() == 1,
               "forward_scalar requires a single-output network");
  return forward(input)[0];
}

double Mlp::train_sample(std::span<const double> input,
                         std::span<const double> target,
                         const BackpropConfig& config) {
  IFET_REQUIRE(static_cast<int>(target.size()) == num_outputs(),
               "Mlp::train_sample: target size mismatch");
  // Both scratches keep their capacity across calls, so a training run
  // allocates on its first sample only.
  ForwardState& state = train_state_;
  run_forward_into(input, state);

  // delta[l][j] = dE/dz for unit j of layer l+1 (z = pre-activation).
  std::vector<std::vector<double>>& delta = train_delta_;
  delta.resize(weights_.size());
  const auto& out = state.activations.back();
  double sq_error = 0.0;
  delta.back().resize(out.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    double err = out[j] - target[j];
    sq_error += err * err;
    delta.back()[j] = err * activate_derivative(out[j], Activation::kSigmoid);
  }
  for (std::size_t l = weights_.size() - 1; l-- > 0;) {
    const auto& act = state.activations[l + 1];
    delta[l].assign(act.size(), 0.0);
    for (std::size_t i = 0; i < act.size(); ++i) {
      double back = 0.0;
      for (std::size_t j = 0; j < delta[l + 1].size(); ++j) {
        back += weights_[l + 1][j][i] * delta[l + 1][j];
      }
      delta[l][i] = back * activate_derivative(act[i], hidden_activation_);
    }
  }

  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const auto& prev = state.activations[l];
    for (std::size_t j = 0; j < weights_[l].size(); ++j) {
      double dj = delta[l][j];
      auto& vel_row = weight_velocity_[l][j];
      auto& w_row = weights_[l][j];
      for (std::size_t i = 0; i < w_row.size(); ++i) {
        vel_row[i] = config.momentum * vel_row[i] -
                     config.learning_rate * dj * prev[i];
        w_row[i] += vel_row[i];
      }
      bias_velocity_[l][j] =
          config.momentum * bias_velocity_[l][j] - config.learning_rate * dj;
      biases_[l][j] += bias_velocity_[l][j];
    }
  }
  return sq_error;
}

double Mlp::evaluate_mse(const std::vector<std::vector<double>>& inputs,
                         const std::vector<std::vector<double>>& targets) const {
  IFET_REQUIRE(inputs.size() == targets.size(),
               "evaluate_mse: input/target count mismatch");
  if (inputs.empty()) return 0.0;
  double total = 0.0;
  std::size_t terms = 0;
  ForwardState state;  // one scratch reused by every sample
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    run_forward_into(inputs[s], state);
    const auto& out = state.activations.back();
    for (std::size_t j = 0; j < out.size(); ++j) {
      double err = out[j] - targets[s][j];
      total += err * err;
      ++terms;
    }
  }
  return total / static_cast<double>(terms);
}

std::uint64_t Mlp::params_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = hash_combine(h, static_cast<std::uint64_t>(hidden_activation_));
  for (int s : layer_sizes_) {
    h = hash_combine(h, static_cast<std::uint64_t>(s));
  }
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    for (std::size_t j = 0; j < weights_[l].size(); ++j) {
      for (double w : weights_[l][j]) h = hash_combine(h, hash_double(w));
      h = hash_combine(h, hash_double(biases_[l][j]));
    }
  }
  return h;
}

Mlp Mlp::resized_inputs(const std::vector<int>& kept_inputs, Rng& rng) const {
  IFET_REQUIRE(!kept_inputs.empty(), "resized_inputs: empty input mapping");
  for (int old_index : kept_inputs) {
    IFET_REQUIRE(old_index < num_inputs(),
                 "resized_inputs: mapping references nonexistent old input");
  }
  std::vector<int> new_sizes = layer_sizes_;
  new_sizes.front() = static_cast<int>(kept_inputs.size());
  Mlp out(new_sizes, rng, hidden_activation_);
  // Copy everything beyond the first weight matrix verbatim.
  for (std::size_t l = 1; l < weights_.size(); ++l) {
    out.weights_[l] = weights_[l];
    out.biases_[l] = biases_[l];
  }
  out.biases_[0] = biases_[0];
  // First matrix: keep columns of surviving inputs; new inputs (-1) retain
  // the fresh random initialization.
  for (std::size_t j = 0; j < out.weights_[0].size(); ++j) {
    for (std::size_t i = 0; i < kept_inputs.size(); ++i) {
      int old_index = kept_inputs[i];
      if (old_index >= 0) {
        out.weights_[0][j][i] =
            weights_[0][j][static_cast<std::size_t>(old_index)];
      }
    }
  }
  return out;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    n += biases_[l].size();
    for (const auto& row : weights_[l]) n += row.size();
  }
  return n;
}

void Mlp::save(std::ostream& os) const {
  os << "ifet-mlp 1\n";
  os << layer_sizes_.size();
  for (int s : layer_sizes_) os << ' ' << s;
  os << '\n' << static_cast<int>(hidden_activation_) << '\n';
  // max_digits10 round-trips IEEE doubles exactly through decimal text.
  os << std::setprecision(17);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    for (std::size_t j = 0; j < weights_[l].size(); ++j) {
      for (double w : weights_[l][j]) os << w << ' ';
      os << biases_[l][j] << '\n';
    }
  }
}

Mlp Mlp::load(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  IFET_REQUIRE(magic == "ifet-mlp" && version == 1,
               "Mlp::load: not an ifet-mlp v1 stream");
  std::size_t num_layers = 0;
  is >> num_layers;
  IFET_REQUIRE(num_layers >= 2 && num_layers < 64,
               "Mlp::load: implausible layer count");
  std::vector<int> sizes(num_layers);
  for (auto& s : sizes) is >> s;
  int act = 0;
  is >> act;
  IFET_REQUIRE(act >= 0 && act <= static_cast<int>(Activation::kTanh),
               "Mlp::load: unknown activation id");
  Rng dummy(0);
  Mlp mlp(sizes, dummy, static_cast<Activation>(act));
  for (std::size_t l = 0; l < mlp.weights_.size(); ++l) {
    for (std::size_t j = 0; j < mlp.weights_[l].size(); ++j) {
      for (auto& w : mlp.weights_[l][j]) is >> w;
      is >> mlp.biases_[l][j];
    }
  }
  IFET_REQUIRE(static_cast<bool>(is), "Mlp::load: truncated stream");
  return mlp;
}

}  // namespace ifet
