// Multi-layer perceptron trained with feed-forward back-propagation.
//
// Paper Sec 3: "The neural network topology we have used is a three-layer
// perceptron, and it is trained with the Feed-Forward Back-Propagation
// Network (BPN) algorithm" (Werbos 1974; Rumelhart & McClelland 1986).
// We implement the general L-layer case but the library defaults everywhere
// to the paper's three layers (input, one hidden, output). Outputs pass
// through a sigmoid so they read directly as opacity / membership certainty
// in [0, 1].
//
// Sec 6 additionally requires *resizing* the input layer when the user adds
// or removes data properties, transferring the previously learned weights
// for the properties that remain ("the input data for the previous network
// would be transferred to the new network"); see resized_inputs().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace ifet {

enum class Activation : std::uint8_t {
  kSigmoid,  ///< 1/(1+e^-x); used for hidden and output layers by default.
  kTanh,     ///< tanh(x); optional hidden-layer alternative.
};

/// Hyperparameters of back-propagation.
struct BackpropConfig {
  double learning_rate = 0.25;
  double momentum = 0.8;  ///< Classic momentum on the weight deltas.
};

class Mlp {
 public:
  Mlp() = default;

  /// Build a network with the given layer sizes, e.g. {3, 8, 1} for the
  /// IATF (inputs <value, cumhist, t>, 8 hidden units, opacity out).
  /// Weights are initialized uniformly in [-r, r] with r = 1/sqrt(fan_in).
  Mlp(std::vector<int> layer_sizes, Rng& rng,
      Activation hidden = Activation::kSigmoid);

  int num_inputs() const;
  int num_outputs() const;
  const std::vector<int>& layer_sizes() const { return layer_sizes_; }
  Activation hidden_activation() const { return hidden_activation_; }

  /// Feed-forward pass. `input.size()` must equal num_inputs().
  std::vector<double> forward(std::span<const double> input) const;

  /// Convenience for single-output networks.
  double forward_scalar(std::span<const double> input) const;

  /// One stochastic gradient step on a single (input, target) pair with
  /// momentum. Returns the pre-update squared error.
  double train_sample(std::span<const double> input,
                      std::span<const double> target,
                      const BackpropConfig& config);

  /// Mean squared error over a batch without updating weights. Reuses one
  /// forward-state scratch across samples (no per-sample allocations).
  double evaluate_mse(const std::vector<std::vector<double>>& inputs,
                      const std::vector<std::vector<double>>& targets) const;

  /// Hash of everything a forward pass depends on: topology, activation,
  /// weights, and biases. Training changes the hash, so caches keyed by it
  /// (FlatMlpCache, DerivedCache entries) invalidate naturally — the same
  /// scheme DerivedCache uses for IATF products.
  std::uint64_t params_hash() const;

  /// Sec 6: derive a network whose input layer holds `kept_inputs.size()`
  /// units; entry i of `kept_inputs` names the old input feeding new input i
  /// (or -1 for a brand-new property, initialized randomly). All other
  /// weights are copied unchanged.
  Mlp resized_inputs(const std::vector<int>& kept_inputs, Rng& rng) const;

  /// Total number of trainable parameters.
  std::size_t parameter_count() const;

  /// Direct parameter access for serialization and gradient checking.
  /// weights()[l][j][i] connects layer-l unit i to layer-(l+1) unit j;
  /// biases()[l][j] is the bias of layer-(l+1) unit j.
  const std::vector<std::vector<std::vector<double>>>& weights() const {
    return weights_;
  }
  std::vector<std::vector<std::vector<double>>>& mutable_weights() {
    return weights_;
  }
  const std::vector<std::vector<double>>& biases() const { return biases_; }
  std::vector<std::vector<double>>& mutable_biases() { return biases_; }

  /// Text (de)serialization; round-trips exactly via hex doubles.
  void save(std::ostream& os) const;
  static Mlp load(std::istream& is);

 private:
  struct ForwardState {
    // activations[l][j]: output of unit j in layer l (layer 0 = inputs).
    std::vector<std::vector<double>> activations;
  };

  ForwardState run_forward(std::span<const double> input) const;
  /// Fills `state` in place, reusing its buffers' capacity — the
  /// allocation-free form evaluate_mse loops over.
  void run_forward_into(std::span<const double> input,
                        ForwardState& state) const;
  double activate(double x, Activation a) const;
  double activate_derivative(double fx, Activation a) const;

  std::vector<int> layer_sizes_;
  Activation hidden_activation_ = Activation::kSigmoid;
  std::vector<std::vector<std::vector<double>>> weights_;
  std::vector<std::vector<double>> biases_;
  // Momentum buffers, same shapes as weights_/biases_.
  std::vector<std::vector<std::vector<double>>> weight_velocity_;
  std::vector<std::vector<double>> bias_velocity_;
  // train_sample's scratch, reused across calls: the forward state and the
  // per-layer deltas. Not a parameter: params_hash, save and load skip it.
  ForwardState train_state_;
  std::vector<std::vector<double>> train_delta_;
};

}  // namespace ifet
