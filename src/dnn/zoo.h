// Model zoo: a small real-training stand-in for every Table 5 workload.
//
// Each entry bundles a synthetic dataset with matching structure, a
// model factory (so the trainer can build per-worker replicas), the
// task type and canonical hyper-parameters (optimizer / LR scaler from
// Table 5). These are the models the real-gradient experiments
// (Figure 6, the GNS studies) run on; the timing simulator handles the
// full-scale twins.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/parallel_trainer.h"

namespace cannikin::dnn {

struct ZooEntry {
  std::string workload;  ///< Table 5 short id this stands in for
  TaskKind task = TaskKind::kClassification;
  std::function<Model()> factory;
  /// Shared so ZooEntry stays copyable; the trainer borrows it.
  std::shared_ptr<InMemoryDataset> dataset;
  double base_lr = 0.05;
  LrScaling lr_scaling = LrScaling::kAdaScale;
  bool use_adam = false;
  int initial_total_batch = 32;
};

/// ResNet-18 / CIFAR-10 stand-in: small CNN on synthetic 3x8x8 images.
ZooEntry make_cifar_standin(std::size_t dataset_size = 2000,
                            std::uint64_t seed = 1);

/// ResNet-50 / ImageNet stand-in: deeper CNN, more classes.
ZooEntry make_imagenet_standin(std::size_t dataset_size = 2000,
                               std::uint64_t seed = 2);

/// DeepSpeech2 / LibriSpeech stand-in: MLP over synthetic
/// "spectrogram" feature vectors.
ZooEntry make_speech_standin(std::size_t dataset_size = 2000,
                             std::uint64_t seed = 3);

/// BERT / SQuAD stand-in: Linear + LayerNorm blocks with AdamW and
/// square-root LR scaling.
ZooEntry make_bert_standin(std::size_t dataset_size = 2000,
                           std::uint64_t seed = 4);

/// NeuMF / MovieLens stand-in: a *real* embedding-table model -- user
/// and item ids flow through a shared Embedding (items offset by the
/// user-vocabulary size) into an MLP scorer with BCE loss.
ZooEntry make_neumf_standin(std::size_t dataset_size = 4000,
                            std::size_t num_users = 120,
                            std::size_t num_items = 200,
                            std::uint64_t seed = 5);

/// Entry by Table 5 short id ("cifar10", "imagenet", ...).
ZooEntry make_standin(const std::string& workload,
                      std::size_t dataset_size = 2000, std::uint64_t seed = 9);

/// Id-based MF dataset for the NeuMF stand-in: features are
/// (user_id, num_users + item_id) stored as doubles, targets binary.
InMemoryDataset make_mf_id_dataset(std::size_t size, std::size_t num_users,
                                   std::size_t num_items,
                                   std::size_t latent_dim, double noise,
                                   std::uint64_t seed);

}  // namespace cannikin::dnn
