/**
 * @file
 * Unit tests for the hardware abstraction: precisions, devices,
 * networks, systems and vendor presets.
 */

#include <string>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "roofline/stream.h"
#include "util/error.h"
#include "util/units.h"

namespace optimus {
namespace {

TEST(Precision, Bytes)
{
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::FP32), 4.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::TF32), 4.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::FP16), 2.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::BF16), 2.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::FP8), 1.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::FP4), 0.5);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::INT8), 1.0);
}

TEST(Precision, ParseRoundTrip)
{
    for (Precision p : {Precision::FP32, Precision::TF32,
                        Precision::FP16, Precision::BF16,
                        Precision::FP8, Precision::FP4,
                        Precision::INT8}) {
        EXPECT_EQ(parsePrecision(precisionName(p)), p);
    }
    EXPECT_EQ(parsePrecision("HALF"), Precision::FP16);
    EXPECT_THROW(parsePrecision("fp12"), ConfigError);
}

TEST(Device, A100PresetNumbers)
{
    Device d = presets::a100_80gb();
    EXPECT_DOUBLE_EQ(d.matrixFlops(Precision::FP16), 312 * TFLOPS);
    EXPECT_DOUBLE_EQ(d.dram().bandwidth, 1.9 * TBps);
    EXPECT_DOUBLE_EQ(d.dram().capacity, 80 * GiB);
    EXPECT_EQ(d.mem.size(), 3u);
    EXPECT_EQ(d.level("L2").name, "L2");
    EXPECT_THROW(d.level("L3"), ConfigError);
}

TEST(Device, UnsupportedPrecisionThrows)
{
    Device d = presets::a100_80gb();
    EXPECT_FALSE(d.supportsMatrix(Precision::FP8));
    EXPECT_THROW(d.matrixFlops(Precision::FP8), ConfigError);
    // Vector fallback: unknown precision falls back to fp32.
    EXPECT_DOUBLE_EQ(d.vectorFlops(Precision::FP8),
                     d.vectorFlops(Precision::FP32));
}

/** what() of the ConfigError @p fn throws; empty when it returns. */
template <typename Fn>
std::string
configErrorText(Fn &&fn)
{
    try {
        fn();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(Diagnostics, DeviceThroughputMessages)
{
    Device d = presets::a100_80gb();
    EXPECT_EQ("config error: A100-80GB: matrix engine does not support fp8",
              configErrorText([&] { d.matrixFlops(Precision::FP8); }));
    d.vectorThroughput.erase(Precision::FP32);
    EXPECT_EQ("config error: A100-80GB: no vector throughput for int8 "
              "and no fp32 fallback",
              configErrorText([&] { d.vectorFlops(Precision::INT8); }));
}

TEST(Diagnostics, StreamMessages)
{
    Device d = presets::a100_80gb();
    EXPECT_EQ("config error: copy: bytes must be non-negative",
              configErrorText([&] {
                  estimateStream(d, "copy", -1.0, 0.0, Precision::FP16);
              }));
    EXPECT_EQ("config error: copy: flops must be non-negative",
              configErrorText([&] {
                  estimateStream(d, "copy", 1.0, -1.0, Precision::FP16);
              }));
}

TEST(Diagnostics, CheckPositiveMessages)
{
    EXPECT_EQ("config error: tile search capacity must be positive, "
              "got -2.000000",
              configErrorText(
                  [] { checkPositive(-2.0, "tile search capacity"); }));
    const std::string name = "A100-80GB L2 capacity";
    EXPECT_EQ("config error: A100-80GB L2 capacity must be positive, "
              "got 0",
              configErrorText([&] { checkPositive(0LL, name); }));
    EXPECT_EQ("", configErrorText([&] { checkPositive(1LL, name); }));
}

TEST(Diagnostics, DeviceValidateMessages)
{
    Device d = presets::a100_80gb();
    d.mem[1].bandwidth = 0.0;
    EXPECT_EQ("config error: A100-80GB L2 bandwidth must be positive, "
              "got 0.000000",
              configErrorText([&] { d.validate(); }));
    d = presets::a100_80gb();
    d.mem[2].capacity = d.mem[1].capacity;
    EXPECT_EQ("config error: A100-80GB: memory level SMEM must be "
              "smaller than L2",
              configErrorText([&] { d.validate(); }));
    EXPECT_EQ("", configErrorText([] { presets::a100_80gb().validate(); }));
}

TEST(Diagnostics, LinkValidateMessages)
{
    NetworkLink l = presets::nvlink3();
    l.maxUtilization = 1.5;
    EXPECT_EQ("config error: NVLink3: maxUtilization must be in (0,1]",
              configErrorText([&] { l.validate(); }));
    l = presets::nvlink3();
    l.bandwidth = -2.0;
    EXPECT_EQ("config error: NVLink3 bandwidth must be positive, "
              "got -2.000000",
              configErrorText([&] { l.validate(); }));
    EXPECT_EQ("", configErrorText([] { presets::nvlink3().validate(); }));
}

TEST(Device, ValidateRejectsBrokenHierarchy)
{
    Device d = presets::a100_80gb();
    d.mem[1].capacity = d.mem[0].capacity * 2;  // L2 bigger than DRAM
    EXPECT_THROW(d.validate(), ConfigError);

    d = presets::a100_80gb();
    d.mem[0].bandwidth = 0.0;
    EXPECT_THROW(d.validate(), ConfigError);

    d = presets::a100_80gb();
    d.matrixMaxEfficiency = 1.5;
    EXPECT_THROW(d.validate(), ConfigError);
}

TEST(Device, DramMayOutrunCache)
{
    // Fig. 9 regime: HBMX DRAM faster than the A100 L2 must validate.
    Device d = presets::withDram(presets::a100_80gb(), "HBMX",
                                 6.8 * TBps, 192 * GiB);
    EXPECT_NO_THROW(d.validate());
    EXPECT_GT(d.dram().bandwidth, d.level("L2").bandwidth);
}

TEST(Device, GenerationOrdering)
{
    double a100 = presets::a100_80gb().matrixFlops(Precision::FP16);
    double h100 = presets::h100_sxm().matrixFlops(Precision::FP16);
    double b200 = presets::b200().matrixFlops(Precision::FP16);
    EXPECT_LT(a100, h100);
    EXPECT_LT(h100, b200);
    EXPECT_TRUE(presets::b200().supportsMatrix(Precision::FP4));
    EXPECT_FALSE(presets::h100_sxm().supportsMatrix(Precision::FP4));
}

TEST(Network, UtilizationCurveSaturates)
{
    NetworkLink l = presets::nvlink3();
    double small = l.utilization(1 * KB);
    double large = l.utilization(1 * GB);
    EXPECT_LT(small, 0.05);
    EXPECT_GT(large, 0.75);
    EXPECT_LE(large, l.maxUtilization);
    EXPECT_LT(l.effectiveBandwidth(1 * KB),
              l.effectiveBandwidth(1 * GB));
}

TEST(Network, ZeroVolumeGetsCeiling)
{
    NetworkLink l = presets::ndrInfiniBand();
    EXPECT_DOUBLE_EQ(l.utilization(0.0), l.maxUtilization);
    EXPECT_THROW(l.utilization(-1.0), ConfigError);
}

TEST(Network, ValidateRejectsBadFields)
{
    NetworkLink l = presets::nvlink4();
    l.bandwidth = -1.0;
    EXPECT_THROW(l.validate(), ConfigError);
    l = presets::nvlink4();
    l.maxUtilization = 0.0;
    EXPECT_THROW(l.validate(), ConfigError);
}

TEST(System, TotalsAndLinkSelection)
{
    System sys = presets::dgxA100(4);
    EXPECT_EQ(sys.totalDevices(), 32);
    EXPECT_EQ(sys.linkForGroup(8).name, "NVLink3");
    EXPECT_EQ(sys.linkForGroup(9).name, "HDR-IB");
    EXPECT_THROW(sys.linkForGroup(0), ConfigError);
}

TEST(System, NvsMatchesIntraNodeRate)
{
    System sys = presets::dgxB200Nvs(8);
    EXPECT_DOUBLE_EQ(sys.interLink.bandwidth,
                     sys.intraLink.bandwidth * 8);
}

TEST(System, MakeSystemValidates)
{
    EXPECT_THROW(makeSystem(presets::a100_80gb(), 0, 1,
                            presets::nvlink3(),
                            presets::hdrInfiniBand()),
                 ConfigError);
}

} // namespace
} // namespace optimus
