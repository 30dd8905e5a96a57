/**
 * @file
 * Symbol-based erasure code — the finer-granule ECC tier LightPC's
 * Section VIII sketches as future work.
 *
 * XCC (the XOR pair code) regenerates one known-bad 32 B half per
 * cacheline in a single cycle, but cannot cope with two or more
 * simultaneously dead devices. The paper proposes layering a
 * symbol-based code used *only* in that rare case, accepting its
 * en/decoding latency in exchange for chipkill-class coverage.
 *
 * This is a Reed-Solomon-style erasure code over GF(2^8) in
 * evaluation form: the k data symbols are the coefficients of a
 * polynomial of degree < k, and the n = k + r codeword symbols are
 * its evaluations at n distinct field points. Any k surviving
 * symbols reconstruct the data by solving the corresponding
 * Vandermonde system (erasure positions are known from per-device
 * fault state, so no error location step is needed). Striped across
 * a Bare-NVDIMM's devices, the code tolerates any r simultaneously
 * dead devices.
 */

#ifndef LIGHTPC_PSM_SYMBOL_ECC_HH
#define LIGHTPC_PSM_SYMBOL_ECC_HH

#include <cstdint>
#include <vector>

namespace lightpc::psm
{

/**
 * Erasure code over GF(2^8); maximum-distance-separable.
 */
class SymbolEcc
{
  public:
    /**
     * @param data_symbols   k: data symbols per codeword.
     * @param parity_symbols r: extra symbols (erasures tolerated).
     * @pre k + r <= 255.
     */
    SymbolEcc(unsigned data_symbols, unsigned parity_symbols);

    /** Encode k data symbols into an n-symbol codeword. */
    std::vector<std::uint8_t>
    encode(const std::vector<std::uint8_t> &data) const;

    /**
     * Allocation-free encode: @p data holds k symbols, @p codeword
     * receives n. Horner steps use the per-position multiplication
     * rows built at construction (one lookup per step, no log/exp
     * pair, no zero branches).
     */
    void encodeInto(const std::uint8_t *data,
                    std::uint8_t *codeword) const;

    /**
     * Recover the k data symbols from a codeword with erasures.
     *
     * @param codeword n symbols; erased entries may hold anything.
     * @param erased   n flags; true marks an erased symbol.
     * @param out      Receives the k recovered data symbols.
     * @return false when fewer than k symbols survive
     *         (unrecoverable — the containment case).
     */
    bool decode(const std::vector<std::uint8_t> &codeword,
                const std::vector<bool> &erased,
                std::vector<std::uint8_t> &out) const;

    /**
     * Lane (device) convenience: @p lanes holds k lanes of
     * @p lane_bytes each, lane-major; one codeword is computed per
     * byte offset. @return n lanes, lane-major.
     */
    std::vector<std::uint8_t>
    encodeLanes(const std::vector<std::uint8_t> &lanes,
                std::size_t lane_bytes) const;

    /**
     * Lane-wise decode; @p lanes holds n lanes, @p erased flags one
     * entry per lane. @p out receives k data lanes.
     */
    bool decodeLanes(const std::vector<std::uint8_t> &lanes,
                     std::size_t lane_bytes,
                     const std::vector<bool> &erased,
                     std::vector<std::uint8_t> &out) const;

  private:
    /**
     * Find k survivors and invert their Vandermonde system.
     *
     * @param erased    n erasure flags.
     * @param survivors Receives the k surviving positions.
     * @param recovery  Receives the k x k recovery matrix R with
     *                  data = R * surviving values.
     * @return false when fewer than k symbols survive.
     */
    bool buildRecovery(const std::vector<bool> &erased,
                       std::vector<unsigned> &survivors,
                       std::vector<std::uint8_t> &recovery) const;

    unsigned k;
    unsigned r;

    /**
     * Per-position Horner rows: row i maps acc -> acc * point(i),
     * 256 entries each, built once per codec.
     */
    std::vector<std::uint8_t> hornerRows;
};

} // namespace lightpc::psm

#endif // LIGHTPC_PSM_SYMBOL_ECC_HH
