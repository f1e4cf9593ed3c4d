#include "dnn/zoo.h"

#include <stdexcept>

#include "common/rng.h"
#include "dnn/layers_extra.h"

namespace cannikin::dnn {

InMemoryDataset make_mf_id_dataset(std::size_t size, std::size_t num_users,
                                   std::size_t num_items,
                                   std::size_t latent_dim, double noise,
                                   std::uint64_t seed) {
  if (num_users == 0 || num_items == 0 || latent_dim == 0) {
    throw std::invalid_argument("make_mf_id_dataset: bad arguments");
  }
  Rng rng(seed);
  std::vector<double> user_latent(num_users * latent_dim);
  std::vector<double> item_latent(num_items * latent_dim);
  for (double& v : user_latent) v = rng.normal();
  for (double& v : item_latent) v = rng.normal();

  std::vector<double> features(size * 2);
  std::vector<double> targets(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::size_t u = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_users) - 1));
    const std::size_t it = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_items) - 1));
    double dot = 0.0;
    for (std::size_t d = 0; d < latent_dim; ++d) {
      dot += user_latent[u * latent_dim + d] * item_latent[it * latent_dim + d];
    }
    features[i * 2] = static_cast<double>(u);
    features[i * 2 + 1] = static_cast<double>(num_users + it);
    // Noisy preference: flip labels near the decision boundary.
    targets[i] = dot + noise * rng.normal() > 0.0 ? 1.0 : 0.0;
  }
  return InMemoryDataset({2}, std::move(features), {}, std::move(targets));
}

ZooEntry make_cifar_standin(std::size_t dataset_size, std::uint64_t seed) {
  ZooEntry entry;
  entry.workload = "cifar10";
  entry.task = TaskKind::kClassification;
  entry.factory = [] { return make_cnn(3, 8, 8, 6, 10); };
  entry.dataset = std::make_shared<InMemoryDataset>(
      make_synthetic_images(dataset_size, 3, 8, 8, 10, 0.4, seed));
  entry.base_lr = 0.05;
  entry.lr_scaling = LrScaling::kAdaScale;
  entry.initial_total_batch = 64;
  return entry;
}

ZooEntry make_imagenet_standin(std::size_t dataset_size, std::uint64_t seed) {
  ZooEntry entry;
  entry.workload = "imagenet";
  entry.task = TaskKind::kClassification;
  entry.factory = [] {
    // Deeper CNN with max pooling, closer to a residual stem.
    Model model;
    model.add(std::make_unique<Conv2d>(3, 8, 3, 1));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<MaxPool2x2>());
    model.add(std::make_unique<Conv2d>(8, 12, 3, 1));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<MaxPool2x2>());
    model.add(std::make_unique<Flatten>());
    model.add(std::make_unique<Linear>(12 * 2 * 2, 16,
                                       kernels::Activation::kReLU));
    model.add(std::make_unique<Linear>(16, 16));
    return model;
  };
  entry.dataset = std::make_shared<InMemoryDataset>(
      make_synthetic_images(dataset_size, 3, 8, 8, 16, 0.3, seed));
  entry.base_lr = 0.04;
  entry.lr_scaling = LrScaling::kAdaScale;
  entry.initial_total_batch = 100;
  return entry;
}

ZooEntry make_speech_standin(std::size_t dataset_size, std::uint64_t seed) {
  ZooEntry entry;
  entry.workload = "librispeech";
  entry.task = TaskKind::kClassification;
  // "Spectrogram" vectors -> phoneme-like classes.
  entry.factory = [] { return make_mlp(40, 48, 2, 12); };
  entry.dataset = std::make_shared<InMemoryDataset>(
      make_gaussian_mixture(dataset_size, 40, 12, 2.0, seed));
  entry.base_lr = 0.03;
  entry.lr_scaling = LrScaling::kAdaScale;
  entry.initial_total_batch = 12;
  return entry;
}

ZooEntry make_bert_standin(std::size_t dataset_size, std::uint64_t seed) {
  ZooEntry entry;
  entry.workload = "squad";
  entry.task = TaskKind::kClassification;
  entry.factory = [] {
    Model model;
    model.add(std::make_unique<Linear>(32, 32));
    model.add(std::make_unique<LayerNorm>(32));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Linear>(32, 32));
    model.add(std::make_unique<LayerNorm>(32));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Linear>(32, 8));
    return model;
  };
  entry.dataset = std::make_shared<InMemoryDataset>(
      make_gaussian_mixture(dataset_size, 32, 8, 1.8, seed));
  entry.base_lr = 0.002;
  entry.lr_scaling = LrScaling::kSquareRoot;
  entry.use_adam = true;
  entry.initial_total_batch = 9;
  return entry;
}

ZooEntry make_neumf_standin(std::size_t dataset_size, std::size_t num_users,
                            std::size_t num_items, std::uint64_t seed) {
  ZooEntry entry;
  entry.workload = "movielens";
  entry.task = TaskKind::kBinaryRanking;
  const std::size_t latent = 8;
  const std::size_t vocab = num_users + num_items;
  entry.factory = [vocab, latent] {
    Model model;
    model.add(std::make_unique<Embedding>(vocab, latent));
    model.add(
        std::make_unique<Linear>(2 * latent, 16, kernels::Activation::kReLU));
    model.add(std::make_unique<Linear>(16, 1));
    return model;
  };
  entry.dataset = std::make_shared<InMemoryDataset>(
      make_mf_id_dataset(dataset_size, num_users, num_items, 6, 0.2, seed));
  entry.base_lr = 0.01;
  entry.lr_scaling = LrScaling::kSquareRoot;
  entry.use_adam = true;
  entry.initial_total_batch = 64;
  return entry;
}

ZooEntry make_standin(const std::string& workload, std::size_t dataset_size,
                      std::uint64_t seed) {
  if (workload == "cifar10") return make_cifar_standin(dataset_size, seed);
  if (workload == "imagenet") return make_imagenet_standin(dataset_size, seed);
  if (workload == "librispeech") return make_speech_standin(dataset_size, seed);
  if (workload == "squad") return make_bert_standin(dataset_size, seed);
  if (workload == "movielens") {
    return make_neumf_standin(2 * dataset_size, 120, 200, seed);
  }
  throw std::invalid_argument("make_standin: unknown workload " + workload);
}

}  // namespace cannikin::dnn
