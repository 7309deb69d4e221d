/**
 * @file
 * Tests for the model zoo: layer geometry of each SNN architecture.
 */

#include <gtest/gtest.h>

#include "snn/models.h"

namespace prosperity {
namespace {

InputConfig
cifarInput(std::size_t classes = 10)
{
    InputConfig in;
    in.num_classes = classes;
    return in;
}

TEST(ConvParams, OutputDims)
{
    ConvParams p;
    p.kernel = 3;
    p.stride = 1;
    p.padding = 1;
    EXPECT_EQ(p.outDim(32), 32u); // same padding keeps size
    p.stride = 2;
    EXPECT_EQ(p.outDim(32), 16u);
    p.kernel = 5;
    p.stride = 1;
    p.padding = 0;
    EXPECT_EQ(p.outDim(28), 24u); // LeNet conv2 geometry
}

TEST(Models, Vgg16HasThirteenConvsAndTwoFcs)
{
    const ModelSpec m = buildVgg16(cifarInput(100));
    std::size_t convs = 0, linears = 0;
    for (const auto& layer : m.layers) {
        convs += layer.type == LayerType::kConv ? 1 : 0;
        linears += layer.type == LayerType::kLinear ? 1 : 0;
    }
    EXPECT_EQ(convs, 13u);
    EXPECT_EQ(linears, 2u);
    EXPECT_EQ(m.name, "VGG16");
}

TEST(Models, Vgg16FirstConvGeometry)
{
    const ModelSpec m = buildVgg16(cifarInput());
    const LayerSpec& conv1 = m.layers.front();
    // T=4 x 32 x 32 rows, 3 channels x 3x3 kernel cols, 64 outputs.
    EXPECT_EQ(conv1.gemm.m, 4u * 32u * 32u);
    EXPECT_EQ(conv1.gemm.k, 27u);
    EXPECT_EQ(conv1.gemm.n, 64u);
    EXPECT_FALSE(conv1.spiking) << "first conv is direct-coded";
    EXPECT_FALSE(conv1.isSpikingGemm());
}

TEST(Models, Vgg16SpatialReductionReachesFc)
{
    const ModelSpec m = buildVgg16(cifarInput(100));
    // After 5 pools 32 -> 1; fc1 takes 512 features.
    const LayerSpec* fc1 = nullptr;
    for (const auto& layer : m.layers)
        if (layer.name == "fc1")
            fc1 = &layer;
    ASSERT_NE(fc1, nullptr);
    EXPECT_EQ(fc1->gemm.k, 512u);
    EXPECT_EQ(fc1->gemm.n, 512u);
    EXPECT_EQ(fc1->gemm.m, 4u); // T tokens of one flattened vector
}

TEST(Models, SpikingGemmDominatesOps)
{
    // Sec. II-A: >98% of SNN operations are spiking GeMM. With the
    // direct-coded first conv excluded, spiking GeMMs still dominate.
    for (const ModelSpec& m :
         {buildVgg16(cifarInput(100)), buildResNet18(cifarInput())}) {
        EXPECT_GT(m.spikingGemmOps() / m.totalDenseOps(), 0.9)
            << m.name;
    }
}

TEST(Models, ResNet18HasTwentyConvs)
{
    const ModelSpec m = buildResNet18(cifarInput());
    std::size_t convs = 0, shortcuts = 0;
    for (const auto& layer : m.layers) {
        if (layer.type == LayerType::kConv) {
            ++convs;
            if (layer.name.find("shortcut") != std::string::npos)
                ++shortcuts;
        }
    }
    // conv1 + 16 block convs + 3 downsample shortcuts.
    EXPECT_EQ(convs, 20u);
    EXPECT_EQ(shortcuts, 3u);
}

TEST(Models, LeNet5Geometry)
{
    InputConfig in;
    in.channels = 1;
    in.height = 28;
    in.width = 28;
    const ModelSpec m = buildLeNet5(in);
    // Geometry checks for the spiking LeNet-5 variant used here.
    const LayerSpec* conv2 = nullptr;
    const LayerSpec* fc1 = nullptr;
    for (const auto& layer : m.layers) {
        if (layer.name == "conv2")
            conv2 = &layer;
        if (layer.name == "fc1")
            fc1 = &layer;
    }
    ASSERT_NE(conv2, nullptr);
    ASSERT_NE(fc1, nullptr);
    // conv1 is same-padded (28 -> 28), pool -> 14; conv2 valid 5x5
    // gives 10x10, pool -> 5x5 into fc1.
    EXPECT_EQ(conv2->gemm.m, 4u * 10u * 10u);
    EXPECT_EQ(conv2->gemm.k, 6u * 25u);
    EXPECT_EQ(conv2->gemm.n, 16u);
    EXPECT_EQ(fc1->gemm.k, 400u); // 16 * 5 * 5
    EXPECT_EQ(fc1->gemm.n, 120u);
}

TEST(Models, SpikformerTokensAndBlocks)
{
    const ModelSpec m = buildSpikformer(cifarInput());
    // 32x32 with two stem pools => 8x8 = 64 tokens; QK is (T*L, d, L).
    const LayerSpec* qk = nullptr;
    std::size_t qk_count = 0;
    for (const auto& layer : m.layers)
        if (layer.type == LayerType::kAttentionQK) {
            qk = &layer;
            ++qk_count;
        }
    ASSERT_NE(qk, nullptr);
    EXPECT_EQ(qk_count, 4u); // 4 encoder blocks
    EXPECT_EQ(qk->gemm.m, 4u * 64u);
    EXPECT_EQ(qk->gemm.k, 384u);
    EXPECT_EQ(qk->gemm.n, 64u);
}

TEST(Models, SpikformerHasNoSoftmax)
{
    const ModelSpec m = buildSpikformer(cifarInput());
    for (const auto& layer : m.layers)
        EXPECT_NE(layer.type, LayerType::kSoftmax)
            << "Spikformer's SSA is softmax-free";
}

TEST(Models, SpikeBertTwelveBlocksWithSfu)
{
    InputConfig in;
    in.seq_len = 64;
    in.num_classes = 2;
    const ModelSpec m = buildSpikeBert(in);
    std::size_t softmax = 0, layernorm = 0, qk = 0;
    for (const auto& layer : m.layers) {
        softmax += layer.type == LayerType::kSoftmax ? 1 : 0;
        layernorm += layer.type == LayerType::kLayerNorm ? 1 : 0;
        qk += layer.type == LayerType::kAttentionQK ? 1 : 0;
    }
    EXPECT_EQ(qk, 12u);
    EXPECT_EQ(softmax, 12u);
    EXPECT_EQ(layernorm, 24u);
}

TEST(Models, SpikingBertFourBlocks)
{
    InputConfig in;
    in.seq_len = 128;
    const ModelSpec m = buildSpikingBert(in);
    std::size_t qk = 0;
    for (const auto& layer : m.layers)
        qk += layer.type == LayerType::kAttentionQK ? 1 : 0;
    EXPECT_EQ(qk, 4u);
    // FFN uses the BERT 4x expansion: 768 -> 3072.
    bool found_ffn = false;
    for (const auto& layer : m.layers)
        if (layer.gemm.k == 768 && layer.gemm.n == 3072)
            found_ffn = true;
    EXPECT_TRUE(found_ffn);
}

TEST(Models, AttentionLayersAreSpikingGemms)
{
    const ModelSpec m = buildSdt(cifarInput());
    for (const auto& layer : m.layers) {
        if (layer.type == LayerType::kAttentionQK ||
            layer.type == LayerType::kAttentionSV) {
            EXPECT_TRUE(layer.isSpikingGemm()) << layer.name;
        }
        if (layer.type == LayerType::kPool) {
            EXPECT_FALSE(layer.isSpikingGemm()) << layer.name;
        }
    }
}

TEST(Models, AlexNetGeometry)
{
    const ModelSpec m = buildAlexNet(cifarInput());
    EXPECT_EQ(m.name, "AlexNet");
    std::size_t convs = 0, linears = 0;
    for (const auto& layer : m.layers) {
        convs += layer.type == LayerType::kConv ? 1 : 0;
        linears += layer.type == LayerType::kLinear ? 1 : 0;
    }
    EXPECT_EQ(convs, 5u);
    EXPECT_EQ(linears, 3u);
    // fc1 consumes 256 channels at 4x4 after three pools.
    for (const auto& layer : m.layers) {
        if (layer.name == "fc1") {
            EXPECT_EQ(layer.gemm.k, 256u * 4u * 4u);
        }
    }
}

TEST(Models, ResNet19Geometry)
{
    const ModelSpec m = buildResNet19(cifarInput());
    EXPECT_EQ(m.name, "ResNet19");
    std::size_t convs = 0, shortcuts = 0;
    for (const auto& layer : m.layers) {
        if (layer.type == LayerType::kConv) {
            ++convs;
            if (layer.name.find("shortcut") != std::string::npos)
                ++shortcuts;
        }
    }
    // conv1 + (3+3+2) blocks x 2 convs + 2 downsample shortcuts = 19.
    EXPECT_EQ(convs, 19u);
    EXPECT_EQ(shortcuts, 2u);
    EXPECT_GT(m.totalDenseOps(), buildResNet18(cifarInput())
                                     .totalDenseOps())
        << "ResNet-19 is the widened variant";
}

TEST(Models, ConvLayersRecordInputReuse)
{
    const ModelSpec m = buildVgg16(cifarInput());
    for (const auto& layer : m.layers) {
        if (layer.type == LayerType::kConv &&
            layer.name.find("shortcut") == std::string::npos) {
            EXPECT_EQ(layer.gemm.input_reuse, 9u) << layer.name;
        }
        if (layer.type == LayerType::kLinear) {
            EXPECT_EQ(layer.gemm.input_reuse, 1u) << layer.name;
        }
    }
}

TEST(Models, DenseOpCountsArePositiveAndConsistent)
{
    for (const ModelSpec& m :
         {buildVgg16(cifarInput()), buildVgg9(cifarInput()),
          buildResNet18(cifarInput()), buildSpikformer(cifarInput()),
          buildSdt(cifarInput())}) {
        EXPECT_GT(m.totalDenseOps(), 0.0) << m.name;
        EXPECT_GE(m.totalDenseOps(), m.spikingGemmOps()) << m.name;
        EXPECT_GT(m.numSpikingGemms(), 0u) << m.name;
    }
}

} // namespace
} // namespace prosperity
