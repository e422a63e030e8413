/*
 * GF(2^8) matrix product C = A * B over the package's uint32 symbol
 * arrays (compiled and loaded at runtime by repro/gf/kernel.py).
 *
 * A is (r, n), B is (n, m), C is (r, m), all row-major uint32 holding
 * field elements in [0, 256).  That range is a trusted precondition: B
 * is narrowed to bytes inside the kernel (no field-native storage is
 * needed), and A indexes the 256 x 256 product table.  The table comes
 * from the Python field, so the kernel knows nothing of the modulus.
 *
 * The columns of B are processed in tiles.  Each tile is narrowed once
 * into a byte buffer sized to stay cache resident, then every output
 * row accumulates sum_j A[i][j] * Btile[j] and widens the bytes back to
 * uint32 into C.
 *
 * The product of one coefficient c and 32 bytes is the split-nibble
 * technique of Plank, Greenan and Miller (FAST 2013):
 * c*x = c*(x & 15) ^ c*(x >> 4 << 4), each half one pshufb lookup in a
 * 16-entry table taken from the product table.  The kernel exists only
 * for that AVX2 path: a byte-at-a-time table loop built without it
 * measured no faster than numpy's bit-packed engine, so a build
 * without AVX2 stops here and the loader falls back to numpy.
 */

#ifndef __AVX2__
#error "the GF(2^8) kernel needs AVX2; without it numpy serves the product"
#endif

#include <immintrin.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Bytes of B kept per tile: n * tile stays near this (L1/L2 sized). */
#define TILE_BUDGET 32768
#define TILE_MIN 128
#define TILE_MAX 4096

static int64_t tile_width(int64_t n, int64_t m)
{
    int64_t tile = TILE_BUDGET / (n > 0 ? n : 1);
    tile -= tile % TILE_MIN;
    if (tile < TILE_MIN)
        tile = TILE_MIN;
    if (tile > TILE_MAX)
        tile = TILE_MAX;
    int64_t need = (m + TILE_MIN - 1) / TILE_MIN * TILE_MIN;
    return tile < need ? tile : need;
}

/* Narrow columns [c0, c0 + w) of B into bt (row stride `tile`), zero
 * padding the rest of each tile row. */
static void narrow_tile(const uint32_t *B, int64_t n, int64_t m, int64_t c0,
                        int64_t w, int64_t tile, uint8_t *bt)
{
    for (int64_t j = 0; j < n; j++) {
        const uint32_t *src = B + j * m + c0;
        uint8_t *dst = bt + j * tile;
        for (int64_t x = 0; x < w; x++)
            dst[x] = (uint8_t)src[x];
        if (w < tile)
            memset(dst + w, 0, (size_t)(tile - w));
    }
}

static void widen(const uint8_t *acc, int64_t w, uint32_t *dst)
{
    int64_t x = 0;
    for (; x + 8 <= w; x += 8) {
        __m128i b = _mm_loadl_epi64((const __m128i *)(acc + x));
        _mm256_storeu_si256((__m256i *)(dst + x), _mm256_cvtepu8_epi32(b));
    }
    for (; x < w; x++)
        dst[x] = acc[x];
}

/* tables[(i * n + j) * 32 ...]: the low-nibble then the high-nibble
 * product table of A[i][j], 16 bytes each. */
static void build_tables(const uint8_t *table, const uint32_t *A, int64_t r,
                         int64_t n, uint8_t *tables)
{
    for (int64_t e = 0; e < r * n; e++) {
        const uint8_t *row = table + (size_t)(A[e] & 0xFF) * 256;
        uint8_t *t = tables + e * 32;
        for (int x = 0; x < 16; x++) {
            t[x] = row[x];
            t[16 + x] = row[x << 4];
        }
    }
}

static void tile_rows(const uint32_t *A, const uint8_t *tables,
                      int64_t r, int64_t n, const uint8_t *bt, int64_t tile,
                      int64_t w, uint8_t *acc, uint32_t *C, int64_t m,
                      int64_t c0)
{
    const __m256i mask = _mm256_set1_epi8(0x0F);
    for (int64_t i = 0; i < r; i++) {
        const uint32_t *arow = A + i * n;
        for (int64_t g = 0; g < tile; g += 128) {
            __m256i s0 = _mm256_setzero_si256(), s1 = s0, s2 = s0, s3 = s0;
            for (int64_t j = 0; j < n; j++) {
                if (!arow[j])
                    continue;
                const uint8_t *t = tables + (i * n + j) * 32;
                const __m256i lo = _mm256_broadcastsi128_si256(
                    _mm_loadu_si128((const __m128i *)t));
                const __m256i hi = _mm256_broadcastsi128_si256(
                    _mm_loadu_si128((const __m128i *)(t + 16)));
                const uint8_t *b = bt + j * tile + g;
#define GF8_STEP(S, OFF)                                                     \
    do {                                                                     \
        __m256i v = _mm256_loadu_si256((const __m256i *)(b + (OFF)));        \
        __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));      \
        __m256i h = _mm256_shuffle_epi8(                                     \
            hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));            \
        S = _mm256_xor_si256(S, _mm256_xor_si256(l, h));                     \
    } while (0)
                GF8_STEP(s0, 0);
                GF8_STEP(s1, 32);
                GF8_STEP(s2, 64);
                GF8_STEP(s3, 96);
#undef GF8_STEP
            }
            _mm256_storeu_si256((__m256i *)(acc + g), s0);
            _mm256_storeu_si256((__m256i *)(acc + g + 32), s1);
            _mm256_storeu_si256((__m256i *)(acc + g + 64), s2);
            _mm256_storeu_si256((__m256i *)(acc + g + 96), s3);
        }
        widen(acc, w, C + i * m + c0);
    }
}

/* C = A * B over GF(2^8); `table` is the field's 256 x 256 product
 * table as bytes.  Returns 0, or -1 when scratch memory is short. */
int repro_gf8_matmul(const uint8_t *table, const uint32_t *A,
                     const uint32_t *B, uint32_t *C, int64_t r, int64_t n,
                     int64_t m)
{
    if (r <= 0 || m <= 0)
        return 0;
    if (n <= 0) {
        memset(C, 0, (size_t)(r * m) * sizeof(uint32_t));
        return 0;
    }
    int64_t tile = tile_width(n, m);
    uint8_t *bt = malloc((size_t)(n * tile));
    uint8_t *acc = malloc((size_t)tile);
    uint8_t *tables = malloc((size_t)(r * n * 32));
    int ok = bt && acc && tables;
    if (ok)
        build_tables(table, A, r, n, tables);
    for (int64_t c0 = 0; ok && c0 < m; c0 += tile) {
        int64_t w = m - c0 < tile ? m - c0 : tile;
        narrow_tile(B, n, m, c0, w, tile, bt);
        tile_rows(A, tables, r, n, bt, tile, w, acc, C, m, c0);
    }
    free(bt);
    free(acc);
    free(tables);
    return ok ? 0 : -1;
}
