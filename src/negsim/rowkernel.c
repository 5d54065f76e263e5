/* Row kernel for the column-packed stabilizer tableau of negsim.stabilizer.
 *
 * The tableau is a C-contiguous (W, n) uint64 array with n = 2L columns and
 * W = ceil(n / 64) words per column: bit r % 64 of word [r / 64][c] is entry
 * c of tableau row r (Gidney's layout, arXiv:2103.02202). Rows j and L + j
 * form pair j. The stabilizer mask (bit j set when pair j holds a
 * stabilizer) arrives as the little-endian bytes of a Python int, S words.
 *
 * run_trajectory runs a whole trajectory of circuit.run_trajectory in one
 * call: circuit._layer_ops' draws, gates, Z measurements and dephasing, in
 * its order, and an int16 record of the half cut every stride layers.
 * apply_layer is the one tableau update of the reference loop: a flush's
 * dephasing, gates and Z measurements, or entanglement's trace-out, in one
 * call. Both make the row operations of the numpy code they stand in for
 * (channels._dephase_inplace, channels._apply_tables_inplace and
 * stabilizer._collapse_rows), in the same order, so both leave the same
 * bits; measure and _collapse_rows have the same one tail for cases (b)
 * and (c). A measurement's or a dephasing's row products take one pass
 * over the columns (update_rows): per block of 64 columns the source row's
 * bits are read once, then only the words holding a cleared or target row
 * are updated, and a dephasing's parity sums read only the words holding
 * a destabilizer partner, so neither grows as L^2. record_ranks reads the
 * tableau: the three ranks behind every entropy, negativity and record of
 * negsim.entanglement, from one elimination over the stabilizer rows
 * (cut_ranks), which run_trajectory's records share, with one scratch
 * buffer per trajectory.
 * canonicalize runs stabilizer.canonicalize's two sweeps on an unsigned
 * state with the row-int code's row operations in its order. Nothing here
 * reads or writes a sign. A site, column, gate class or stabilizer pair out
 * of range makes a call return -2 before it changes anything; the Python
 * side checks the tableau's shape and dtype and the length of every byte
 * argument.
 *
 * draw_layer, draw_sites, apply_layer's outcome bits and run_trajectory
 * draw from a trajectory's numpy.random.Generator through its bitgen_t,
 * the struct of function pointers numpy's own C draws from, with numpy's
 * algorithms: the same values, and the bit generator left in the same
 * state, as the Generator calls that circuit._layer_ops names. The Python
 * side holds the bit generator's lock around each call.
 *
 * The library also holds polymer_energy, the ground-state DP of
 * polymer._min_energy on the bool bond lattice of a PolymerLattice, with
 * one array per depth parity. It returns -2 for a query out of range
 * before it reads the lattice; the Python side checks the lattice's shape,
 * dtype and layout. draw_bonds draws that lattice for
 * PolymerLattice.sample: it steps numpy's PCG64 itself, from the 128-bit
 * state and increment that the Python side reads from bit_generator.state,
 * writes each bond as rng.random() < p would make it, and hands back the
 * state after the last draw, which the Python side writes into
 * bit_generator.state under its lock. Pinned, it draws only the bonds a
 * path from (0, 0) to (w, 0) can visit: in column x the first
 * 2 (min(x, w - x, h) + 1) bonds, at depths of x's parity, with the rest
 * of the column 0 and jumped over in one LCG step of the whole column. It
 * draws a large lattice in groups of whole columns on pthreads, each from
 * its exact PCG64 state by jump-ahead, and joins them all before it
 * returns. Built by GCC on x86-64 glibc and run on a CPU with AVX-512 (F,
 * BW, VL and DQ, checked at each call), every run of bonds is drawn 16
 * PCG64 lanes at a time, on 16 bonds in a row or, pinned, on the 16 of one
 * parity among 32; elsewhere one plain loop steps the LCG once per bond.
 * Where the compiler has no unsigned __int128 it multiplies in 32-bit
 * halves, with the same results.
 */
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

#define BIT(r) ((u64)1 << ((r) & 63))

/* The loops over a row's n columns run about twice as fast as AVX2 vectors.
 * GCC on x86-64 glibc builds the helpers marked WIDE for AVX2 and for the
 * baseline and picks one when the library loads (an ifunc); elsewhere they
 * are built once, for the baseline. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && !defined(__clang__)
#define WIDE __attribute__((target_clones("avx2", "default")))
#define LANES __attribute__((target("avx512f,avx512bw,avx512vl,avx512dq")))
#include <immintrin.h>
#else
#define WIDE
#endif

static u64 load(const unsigned char *bytes, int w)
{
    u64 v;
    memcpy(&v, bytes + 8 * (size_t)w, sizeof v);
    return v;
}

static int has(const u64 *v, int r) { return (v[r >> 6] >> (r & 63)) & 1; }

/* index of the lowest set bit of the W-word vector v, or -1 */
static int lowest(const u64 *v, int W)
{
    for (int w = 0; w < W; w++)
        if (v[w])
            return 64 * w + __builtin_ctzll(v[w]);
    return -1;
}

/* Rows set in the W-word mask clear <- 0, then row x ^= row src for every
 * row x set in targets: one pass over the n columns, 64 at a time, reading
 * src's bits of a block before writing any row, so src may be cleared.
 * Only the words that hold a target or a cleared row are visited. clear
 * may be NULL. */
WIDE static void update_rows(u64 *t, int n, int W, int src, const u64 *targets,
                             const u64 *clear)
{
    const u64 *from = t + (size_t)(src >> 6) * n;
    int s = src & 63, used[W], count = 0;
    u64 bits[64];
    for (int w = 0; w < W; w++)
        if (targets[w] | (clear ? clear[w] : 0))
            used[count++] = w;
    for (int c0 = 0; c0 < n && count; c0 += 64) {
        int m = n - c0 < 64 ? n - c0 : 64;
        for (int c = 0; c < m; c++)
            bits[c] = 0 - ((from[c0 + c] >> s) & 1);
        for (int i = 0; i < count; i++) {
            u64 x = targets[used[i]], keep = clear ? ~clear[used[i]] : ~(u64)0;
            u64 *row = t + (size_t)used[i] * n + c0;
            for (int c = 0; c < m; c++)
                row[c] = (row[c] & keep) ^ (x & bits[c]);
        }
    }
}

static void column(const u64 *t, int n, int W, int c, u64 *out)
{
    for (int w = 0; w < W; w++)
        out[w] = t[(size_t)w * n + c];
}

/* the stabilizer mask bytes as S words */
static void load_mask(const unsigned char *bytes, int S, u64 *stab)
{
    for (int w = 0; w < S; w++)
        stab[w] = load(bytes, w);
}

/* Measure Z_site: stabilizer._collapse_rows with h = Z_site, whose
 * anticommuting rows are column site. Returns 1 when the outcome is random:
 * in case (b) stabilizer p anticommuted, in case (c) pair p gains a
 * stabilizer and its bit is set in stab. Returns 0 in case (a). */
static int measure(u64 *t, int L, u64 *stab, int site)
{
    int n = 2 * L, W = (n + 63) / 64, S = (L + 63) / 64, src = -1;
    u64 anti[W], clear[W];
    column(t, n, W, site, anti);
    for (int w = 0; w < S && src < 0; w++) { /* (b): the lowest stabilizer hit */
        u64 hit = anti[w] & stab[w];
        if (hit)
            src = 64 * w + __builtin_ctzll(hit);
    }
    for (int w = 0; w < W && src < 0; w++) /* (c): the lowest logical row hit */
        for (u64 m = anti[w]; m && src < 0; m &= m - 1) {
            int r = 64 * w + __builtin_ctzll(m);
            if (!has(stab, r < L ? r : r - L))
                src = r;
        }
    if (src < 0) /* (a): deterministic, nothing changes */
        return 0;
    /* The one tail of cases (b) and (c), as in stabilizer._collapse_rows:
     * row src goes into the anticommuting rows outside its pair p. When src
     * is the pair's first row (always in case b) it also replaces the
     * second. Then the first row becomes Z_site. */
    int p = src % L;
    memset(clear, 0, sizeof clear);
    anti[src >> 6] &= ~BIT(src);
    anti[p >> 6] &= ~BIT(p);
    clear[p >> 6] |= BIT(p);
    if (src == p) {
        anti[(L + p) >> 6] |= BIT(L + p);
        clear[(L + p) >> 6] |= BIT(L + p);
    }
    update_rows(t, n, W, src, anti, clear);
    t[(size_t)(p >> 6) * n + L + site] |= BIT(p);
    stab[p >> 6] |= BIT(p);
    return 1;
}

/* Dephase at column col: channels._dephase_inplace. S_p, the lowest
 * stabilizer hit, goes into the other hit stabilizers, their destabilizers
 * into D_p, and the bit of p is cleared in stab. Only the words that hold
 * a hit stabilizer or its destabilizer are read, so the cost grows with L
 * and the hits, not with L^2. */
WIDE static void dephase_column(u64 *t, int L, u64 *stab, int col)
{
    int n = 2 * L, W = (n + 63) / 64, S = (L + 63) / 64, used[W], count = 0;
    u64 others[W], partners[W];
    memset(others, 0, sizeof others);
    memset(partners, 0, sizeof partners);
    for (int w = 0; w < S; w++)
        others[w] = t[(size_t)w * n + col] & stab[w];
    int p = lowest(others, S);
    if (p < 0)
        return;
    stab[p >> 6] &= ~BIT(p);
    others[p >> 6] &= ~BIT(p);
    if (lowest(others, S) < 0)
        return;
    update_rows(t, n, W, p, others, NULL);
    for (int w = 0; w < S; w++)
        for (u64 m = others[w]; m; m &= m - 1) {
            int r = L + 64 * w + __builtin_ctzll(m);
            partners[r >> 6] |= BIT(r);
        }
    for (int w = 0; w < W; w++)
        if (partners[w])
            used[count++] = w;
    u64 *target = t + (size_t)((L + p) >> 6) * n;
    for (int c = 0; c < n; c++) {
        int parity = 0;
        for (int i = 0; i < count; i++)
            parity ^= __builtin_popcountll(t[(size_t)used[i] * n + c] & partners[used[i]]) & 1;
        target[c] ^= (u64)parity << ((L + p) & 63);
    }
}

static int64_t site_at(const unsigned char *sites, int i)
{
    int64_t site;
    memcpy(&site, sites + 8 * (size_t)i, sizeof site);
    return site;
}

/* 1 when each of the count int64 values lies in [0, limit) */
static int sites_ok(const unsigned char *sites, int count, int limit)
{
    for (int i = 0; i < count; i++)
        if (site_at(sites, i) < 0 || site_at(sites, i) >= limit)
            return 0;
    return 1;
}

/* The gate with the row-major 4x4 all-ones/zero masks map on the columns
 * (x_i, z_i, x_j, z_j) */
WIDE static void gate(u64 *t, int L, const u64 *map, int64_t i, int64_t j)
{
    int n = 2 * L, W = (n + 63) / 64;
    size_t idx[4] = {(size_t)i, (size_t)(L + i), (size_t)j, (size_t)(L + j)};
    for (int w = 0; w < W; w++) {
        u64 *row = t + (size_t)w * n, old[4], out[4] = {0, 0, 0, 0};
        for (int a = 0; a < 4; a++)
            old[a] = row[idx[a]];
        for (int a = 0; a < 4; a++)
            for (int b = 0; b < 4; b++)
                out[b] ^= old[a] & map[4 * a + b];
        for (int b = 0; b < 4; b++)
            row[idx[b]] = out[b];
    }
}

/* numpy's bitgen_t (numpy/random/bitgen.h) */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* A uniform integer in [0, r] for r < 2^32 - 1: numpy's
 * buffered_bounded_lemire_uint32 (Lemire, arXiv:1805.10941), which
 * Generator.integers and choice use for such ranges. No draw when r = 0. */
static uint32_t bounded(bitgen_t *g, uint32_t r)
{
    if (r == 0)
        return 0;
    uint32_t excl = r + 1;
    uint64_t m = (uint64_t)g->next_uint32(g->state) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        uint32_t threshold = (UINT32_MAX - r) % excl;
        while (leftover < threshold) {
            m = (uint64_t)g->next_uint32(g->state) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* A layer's draws before its measurements, as rng.integers(720, size=n),
 * rng.integers(16, size=n) and, when p > 0, rng.random(L) < p make them:
 * out[0, n) gets the gate classes, out[n, 2n) the sign bits and out from 2n
 * on the sites hit, in order. Returns the number of sites hit. */
int draw_layer(bitgen_t *g, int n, int L, double p, int64_t *out)
{
    int count = 0;
    for (int i = 0; i < 2 * n; i++)
        out[i] = bounded(g, i < n ? 719 : 15);
    if (p > 0)
        for (int s = 0; s < L; s++)
            if (g->next_double(g->state) < p)
                out[2 * n + count++] = s;
    return count;
}

/* The set rng.choice(L, size=m, replace=False) draws where numpy uses
 * Floyd's algorithm (all but L > 10000 with m > L / 50): m draws in [0, j]
 * for j = L - m .. L - 1, each adding its value or, when that is taken, j;
 * then the m - 1 draws of numpy's shuffle of the result, in [0, i] for
 * i = m - 1 .. 1, which reorder it and change no member. The members go
 * into sites in increasing order. */
void draw_sites(bitgen_t *g, int L, int m, int64_t *sites)
{
    int S = (L + 63) / 64, k = 0;
    u64 taken[S];
    memset(taken, 0, sizeof taken);
    for (int j = L - m; j < L; j++) {
        int v = (int)bounded(g, (uint32_t)j);
        v = has(taken, v) ? j : v;
        taken[v >> 6] |= BIT(v);
    }
    for (int i = m - 1; i >= 1; i--)
        bounded(g, (uint32_t)i);
    for (int w = 0; w < S; w++)
        for (u64 bits = taken[w]; bits; bits &= bits - 1)
            sites[k++] = 64 * w + __builtin_ctzll(bits);
}

/* One flush of the runner, in its order: dephase the ncols int64 tableau
 * columns cols, apply the ngates gates of a brickwork layer (gate g on the
 * sites (gates[g], gates[g] + 1) with the map tables + 16 * classes[g],
 * tables being the (720, 4, 4) array of channels._class_tables), then
 * measure Z on the nsites int64 sites and, when g is not NULL, draw one
 * outcome bit in [0, 1] from it per random outcome. The mask bytes are
 * updated in place. Returns the number of random outcomes (cases b and c),
 * or -2 before any bit changes or draw when a column, site or class is out
 * of range. */
int apply_layer(u64 *t, int L, unsigned char *mask, const u64 *tables,
                const unsigned char *cols, int ncols, const unsigned char *gates,
                const unsigned char *classes, int ngates, const unsigned char *sites,
                int nsites, bitgen_t *g)
{
    int S = (L + 63) / 64, random = 0;
    if (!sites_ok(cols, ncols, 2 * L) || !sites_ok(gates, ngates, L - 1)
        || !sites_ok(classes, ngates, 720) || !sites_ok(sites, nsites, L))
        return -2;
    u64 stab[S];
    load_mask(mask, S, stab);
    for (int i = 0; i < ncols; i++)
        dephase_column(t, L, stab, (int)site_at(cols, i));
    for (int g = 0; g < ngates; g++) {
        int64_t c = site_at(gates, g);
        gate(t, L, tables + 16 * site_at(classes, g), c, c + 1);
    }
    for (int i = 0; i < nsites; i++)
        random += measure(t, L, stab, (int)site_at(sites, i));
    memcpy(mask, stab, sizeof stab);
    for (int i = 0; g && i < random; i++)
        bounded(g, 1);
    return random;
}

/* GF(2) rank of count S-word vectors stored one after another in v, found
 * by elimination in place; stops once it reaches limit. owner[b], over the
 * 64 S bit positions, is the kept vector whose lowest set bit is b, or -1:
 * adding it to a vector clears that bit and changes only higher ones, so a
 * vector is reduced by walking up its lowest set bit. */
static int rank_vectors(u64 *v, int count, int S, int limit, int *owner)
{
    int rank = 0;
    for (int b = 0; b < 64 * S; b++)
        owner[b] = -1;
    for (int i = 0; i < count && rank < limit; i++) {
        u64 *x = v + (size_t)i * S;
        int b;
        while ((b = lowest(x, S)) >= 0 && owner[b] >= 0) {
            const u64 *y = v + (size_t)owner[b] * S;
            for (int w = b >> 6; w < S; w++)
                x[w] ^= y[w];
        }
        if (b < 0)
            continue;
        memmove(v + (size_t)rank * S, x, sizeof *x * S);
        owner[b] = rank++;
    }
    return rank;
}

/* Each row's word ^= its targets on the columns first .. N - 1 where
 * own[c], the pivot's word, has bit s; mine, own's targets, lacks bit s. */
static inline void reduce_one(u64 *restrict own, int s, u64 mine, int first, int N)
{
    for (int c = first; c < N; c++)
        own[c] ^= mine & (0 - ((own[c] >> s) & 1));
}

static inline void reduce_two(u64 *restrict own, u64 *restrict a, int s, u64 mine, u64 xa,
                              int first, int N)
{
    for (int c = first; c < N; c++) {
        u64 m = 0 - ((own[c] >> s) & 1);
        own[c] ^= mine & m;
        a[c] ^= xa & m;
    }
}

static inline void reduce_three(u64 *restrict own, u64 *restrict a, u64 *restrict b, int s,
                                u64 mine, u64 xa, u64 xb, int first, int N)
{
    for (int c = first; c < N; c++) {
        u64 m = 0 - ((own[c] >> s) & 1);
        own[c] ^= mine & m;
        a[c] ^= xa & m;
        b[c] ^= xb & m;
    }
}

/* Row x ^= row p for every row x set in targets, on the columns first ..
 * N - 1 of the (W, N) buffer v, two target words per loop over the
 * columns. targets must not hold p. */
WIDE static void reduce(u64 *v, int N, int W, int p, const u64 *targets, int first)
{
    u64 *own = v + (size_t)(p >> 6) * N, mine = targets[p >> 6];
    int s = p & 63, count = 0, other[W];
    for (int w = 0; w < W; w++)
        if (w != p >> 6 && targets[w])
            other[count++] = w;
    int i = 0;
    for (; i + 1 < count; i += 2, mine = 0)
        reduce_three(own, v + (size_t)other[i] * N, v + (size_t)other[i + 1] * N, s, mine,
                     targets[other[i]], targets[other[i + 1]], first, N);
    if (i < count)
        reduce_two(own, v + (size_t)other[i] * N, s, mine, targets[other[i]], first, N);
    else if (mine)
        reduce_one(own, s, mine, first, N);
}

/* One elimination pass over the columns lo .. hi - 1 of the (W, N) buffer
 * v: for each column the pivot is the lowest row of rest with its bit, or
 * of prefer's rows when one of them has it (prefer may be NULL). The pivot
 * leaves rest and goes into the other rows of rest with that bit, on that
 * column and every later one, so no row of rest keeps a bit on the columns
 * passed. That loop over the columns starts on a multiple of 4, since the
 * pivot has no bit on this pass's earlier columns and no later pass reads
 * an earlier pass's columns, and N is a multiple of 4. Pivots outside
 * prefer are set in picked (which may be NULL). Returns the pivot count:
 * the rank of rest's rows on the columns lo .. hi - 1. */
static int eliminate(u64 *v, int N, int W, int lo, int hi, u64 *rest, const u64 *prefer,
                     u64 *picked)
{
    int rank = 0, left = 0;
    u64 hit[W];
    for (int w = 0; w < W; w++)
        left += __builtin_popcountll(rest[w]);
    for (int c = lo; c < hi && rank < left; c++) {
        int p = -1;
        u64 any = 0;
        for (int w = 0; w < W; w++)
            any |= hit[w] = v[(size_t)w * N + c] & rest[w];
        if (!any)
            continue;
        for (int w = 0; prefer && w < W && p < 0; w++)
            if (hit[w] & prefer[w])
                p = 64 * w + __builtin_ctzll(hit[w] & prefer[w]);
        if (p < 0)
            p = lowest(hit, W);
        if (picked && !(prefer && has(prefer, p)))
            picked[p >> 6] |= BIT(p);
        hit[p >> 6] &= ~BIT(p);
        rest[p >> 6] &= ~BIT(p);
        reduce(v, N, W, p, hit, c & ~3);
        rank++;
    }
    return rank;
}

/* Bytes of cut_ranks' scratch for L sites and count sites in A and B. */
static size_t cut_scratch(int L, int count)
{
    size_t S = (size_t)(L + 63) / 64;
    return sizeof(int) * 64 * S + sizeof(u64) * S * (2 * (size_t)count + 4 + 3 * (size_t)L);
}

/* The three ranks of entanglement._ranks for disjoint site sets A (nA
 * int64 sites) and B (nB), in one elimination over the stabilizer rows:
 * out[0] = their rank on B's X and Z columns (S_A's), out[1] = on A's
 * (S_B's) and out[2] = the rank of J = X_A Z_A^T + Z_A X_A^T (2E). The
 * rows' bits on the X and Z columns of B's sites, then A's, in the order
 * given and each site's two side by side, are copied into scratch, an
 * (S, 2nB + 2nA) column-packed buffer padded with zero columns to a
 * multiple of 4. The pass over B's columns counts rank_B, and the rows it
 * leaves generate G_A, the subgroup supported on A (Fattal et al.,
 * quant-ph/0406168). The pass over A's columns counts rank_A and takes a
 * row of G_A as the pivot whenever one has the bit, so G_A's rows only ever
 * change among themselves; its pivots outside G_A are the cross generators
 * C, I = rank_A + rank_B - k of them, and the rows it leaves are supported
 * on B. Rows local to A or to B commute with every row on A, and a change
 * of generators keeps J's rank, so 2E is the rank of J over C alone (Sang
 * et al., PRX Quantum 2, 030313); the preference for G_A keeps C at I
 * rows. The two passes are exact for any A and B; out[2] needs every
 * stabilizer supported on A u B, as after entanglement's trace-out or when
 * A u B is the chain. The sites' order sets the cost, not the ranks:
 * run_trajectory's records take each half from the cut outwards. scratch
 * holds cut_scratch(L, nA + nB) bytes. */
static void cut_ranks(const u64 *t, int L, const u64 *stab, const unsigned char *A, int nA,
                      const unsigned char *B, int nB, int *out, void *scratch)
{
    int n = 2 * L, S = (L + 63) / 64, used = 2 * (nA + nB), N = (used + 3) & ~3, a = 2 * nB;
    int m = 0, *owner = scratch, *rows = owner;
    u64 *v = (u64 *)(owner + 64 * S), *J = v + (size_t)S * N, rest[S], local[S], cross[S];
    for (int w = 0; w < S; w++) {
        const u64 *from = t + (size_t)w * n;
        u64 *to = v + (size_t)w * N;
        for (int i = 0; i < nB; i++) {
            int64_t site = site_at(B, i);
            to[2 * i] = from[site] & stab[w];
            to[2 * i + 1] = from[L + site] & stab[w];
        }
        for (int i = 0; i < nA; i++) {
            int64_t site = site_at(A, i);
            to[a + 2 * i] = from[site] & stab[w];
            to[a + 2 * i + 1] = from[L + site] & stab[w];
        }
        for (int c = used; c < N; c++)
            to[c] = 0;
    }
    memcpy(rest, stab, sizeof rest);
    out[0] = eliminate(v, N, S, 0, a, rest, NULL, NULL);
    memcpy(local, rest, sizeof local);
    memcpy(rest, stab, sizeof rest);
    memset(cross, 0, sizeof cross);
    out[1] = eliminate(v, N, S, a, used, rest, local, cross);
    /* C's rows on A as row bitsets X_i and Z_i (H words each), then row i
     * of J (M words) has bit l when X_i.Z_l + Z_i.X_l is odd; rows, C's
     * row indices, lends owner's space until rank_vectors needs it */
    for (int w = 0; w < S; w++)
        for (u64 bits = cross[w]; bits; bits &= bits - 1)
            rows[m++] = 64 * w + __builtin_ctzll(bits);
    int H = (nA + 63) / 64, M = (m + 63) / 64;
    u64 *X = J + (size_t)m * M, *Z = X + (size_t)m * H;
    memset(J, 0, sizeof *J * (size_t)m * M);
    for (int i = 0; i < m; i++) {
        const u64 *xz = v + (size_t)(rows[i] >> 6) * N + a;
        int b = rows[i] & 63;
        for (int h = 0; h < H; h++) {
            u64 xs = 0, zs = 0;
            for (int j = 64 * h; j < nA && j < 64 * h + 64; j++) {
                xs |= ((xz[2 * j] >> b) & 1) << (j & 63);
                zs |= ((xz[2 * j + 1] >> b) & 1) << (j & 63);
            }
            X[(size_t)i * H + h] = xs;
            Z[(size_t)i * H + h] = zs;
        }
    }
    for (int i = 0; i < m; i++)
        for (int l = i + 1; l < m; l++) {
            int odd = 0;
            for (int h = 0; h < H; h++)
                odd ^= __builtin_popcountll((X[(size_t)i * H + h] & Z[(size_t)l * H + h])
                                            ^ (Z[(size_t)i * H + h] & X[(size_t)l * H + h]));
            J[(size_t)i * M + (l >> 6)] |= (u64)(odd & 1) << (l & 63);
            J[(size_t)l * M + (i >> 6)] |= (u64)(odd & 1) << (i & 63);
        }
    out[2] = rank_vectors(J, m, M, m, owner);
}

/* cut_ranks for A's nregion sites region and B's nrest sites rest, which
 * the caller keeps disjoint. Returns 0, -1 when out of memory, or -2 before
 * it reads the tableau when a site is out of range. */
int record_ranks(const u64 *t, int L, const unsigned char *mask, const unsigned char *region,
                 int nregion, const unsigned char *rest, int nrest, int *out)
{
    int S = (L + 63) / 64;
    if (!sites_ok(region, nregion, L) || !sites_ok(rest, nrest, L))
        return -2;
    void *scratch = malloc(cut_scratch(L, nregion + nrest));
    if (!scratch)
        return -1;
    u64 stab[S];
    load_mask(mask, S, stab);
    cut_ranks(t, L, stab, region, nregion, rest, nrest, out, scratch);
    free(scratch);
    return 0;
}

/* One trajectory of circuit.run_trajectory from the state t, mask on T
 * layers, drawing from g in circuit._layer_ops' order. Layer l = 1..T:
 * draw_layer's draws for the gates on (c, c + 1), c = 0, 2, .. on odd l and
 * 1, 3, .. on even l; the gates; Z measurements on the sites drawn, then
 * one outcome bit per random outcome; dephasing of sites 0 and L - 1 when
 * every > 0 and l % every == 0, else of the m sites of draw_sites when
 * m > 0. Every stride layers and at T, the half cut A = [0, L/2),
 * B = [L/2, L) gets a record of 4 int16 in out: S_A, S_B, S_AB and 2E,
 * from cut_ranks as entanglement._observables reads them, in one scratch
 * buffer allocated per trajectory. The mask bytes are updated in place.
 * Returns 0, -1 when out of memory, or -2 before it changes or draws
 * anything when an argument is out of range. */
int run_trajectory(u64 *t, int L, unsigned char *mask, const u64 *tables, bitgen_t *g,
                   int T, double p, int every, int m, int stride, int16_t *out)
{
    int S = (L + 63) / 64, half = L / 2, r[3];
    if (L < 2 || L & 1 || L > 32766 || T < 1 || !(p >= 0 && p <= 1) || every < 0 || m < 0
        || m > L || stride < 1)
        return -2;
    int64_t *drawn = malloc(sizeof *drawn * (2 * (size_t)half + L));
    int64_t *sites = malloc(sizeof *sites * (size_t)L);
    void *scratch = malloc(cut_scratch(L, L));
    if (!drawn || !sites || !scratch) {
        free(drawn);
        free(sites);
        free(scratch);
        return -1;
    }
    for (int s = 0; s < half; s++) { /* A's sites from the cut out, then B's */
        sites[s] = half - 1 - s;
        sites[half + s] = half + s;
    }
    const unsigned char *a = (const unsigned char *)sites, *b = (const unsigned char *)(sites + half);
    u64 stab[S];
    load_mask(mask, S, stab);
    for (int l = 1; l <= T; l++) {
        int first = l % 2 ? 0 : 1, n = (L - first) / 2, random = 0;
        int hit = draw_layer(g, n, L, p, drawn);
        for (int i = 0; i < n; i++)
            gate(t, L, tables + 16 * drawn[i], first + 2 * i, first + 2 * i + 1);
        for (int i = 0; i < hit; i++)
            random += measure(t, L, stab, (int)drawn[2 * n + i]);
        for (int i = 0; i < random; i++)
            bounded(g, 1);
        if (every > 0 && l % every == 0) {
            dephase_column(t, L, stab, 0);
            dephase_column(t, L, stab, L - 1);
        } else if (every == 0 && m > 0) {
            draw_sites(g, L, m, drawn);
            for (int i = 0; i < m; i++)
                dephase_column(t, L, stab, (int)drawn[i]);
        }
        if (l % stride == 0 || l == T) {
            int k = 0;
            for (int w = 0; w < S; w++)
                k += __builtin_popcountll(stab[w]);
            cut_ranks(t, L, stab, a, half, b, half, r, scratch);
            out[0] = (int16_t)(half - (k - r[0]));
            out[1] = (int16_t)(half - (k - r[1]));
            out[2] = (int16_t)(L - k);
            out[3] = (int16_t)r[2];
            out += 4;
        }
    }
    memcpy(mask, stab, sizeof stab);
    free(drawn);
    free(sites);
    free(scratch);
    return 0;
}

/* Row r of the tableau as an n-bit bitset, bit c = column c. */
static void get_row(const u64 *t, int n, int r, u64 *out)
{
    const u64 *from = t + (size_t)(r >> 6) * n;
    int s = r & 63;
    memset(out, 0, sizeof *out * (size_t)((n + 63) / 64));
    for (int c = 0; c < n; c++)
        out[c >> 6] |= ((from[c] >> s) & 1) << (c & 63);
}

/* Row r of the tableau <- the n-bit bitset in. */
static void put_row(u64 *t, int n, int r, const u64 *in)
{
    u64 *to = t + (size_t)(r >> 6) * n, bit = BIT(r);
    for (int c = 0; c < n; c++)
        to[c] = (to[c] & ~bit) | ((0 - ((in[c >> 6] >> (c & 63)) & 1)) & bit);
}

/* index of the lowest set bit of the bitset v in [lo, hi), or -1 */
static int lowest_in(const u64 *v, int lo, int hi)
{
    for (int w = lo >> 6; lo < hi && w <= (hi - 1) >> 6; w++) {
        u64 m = w == lo >> 6 ? v[w] & (~(u64)0 << (lo & 63)) : v[w];
        if (m) {
            int b = 64 * w + __builtin_ctzll(m);
            return b < hi ? b : -1;
        }
    }
    return -1;
}

/* stabilizer._left_key of a row as one int: 2 * its leftmost site, plus 1
 * when that site has no X bit; 2L + 1 for the identity. */
static int left_key(const u64 *row, int L)
{
    int x = lowest_in(row, 0, L), z = lowest_in(row, L, 2 * L), left;
    if (x < 0 && z < 0)
        return 2 * L + 1;
    left = z < 0 || (x >= 0 && x <= z - L) ? x : z - L;
    return 2 * left + !has(row, left);
}

/* S_x <- S_p S_x and D_p <- D_p D_x on R-word row bitsets */
static void multiply_into(u64 **s, u64 **d, int R, int p, int x)
{
    for (int w = 0; w < R; w++) {
        s[x][w] ^= s[p][w];
        d[p][w] ^= d[x][w];
    }
}

/* stabilizer.canonicalize on an unsigned state, in place: the k stabilizer
 * rows S and their destabilizers D (pairs in increasing order) go into row
 * bitsets, the two sweeps run on them with the row-int code's operations in
 * its order, and they are written back; the logical pairs are untouched.
 * Each product S_t <- S_p S_t comes with D_p <- D_p D_t. The right sweep
 * takes a column's candidates before any product and picks the first with
 * the largest left_key, as Python's max does. Returns 0, -1 when out of
 * memory, or -2 before it changes anything when the mask names a pair at or
 * beyond L. */
int canonicalize(u64 *t, int L, const unsigned char *mask)
{
    int n = 2 * L, R = (n + 63) / 64, S = (L + 63) / 64, k = 0;
    if (L & 63 && load(mask, S - 1) >> (L & 63))
        return -2;
    u64 stab[S];
    load_mask(mask, S, stab);
    for (int w = 0; w < S; w++)
        k += __builtin_popcountll(stab[w]);
    u64 *bits = malloc(sizeof *bits * (2 * (size_t)k * R + 1));
    u64 **rows = malloc(sizeof *rows * (2 * (size_t)k + 1)), **s = rows, **d = rows + k;
    int *pair = malloc(sizeof *pair * (3 * (size_t)k + 1)), *cand = pair + k, *done = pair + 2 * k;
    if (!bits || !rows || !pair) {
        free(bits);
        free(rows);
        free(pair);
        return -1;
    }
    for (int j = 0, i = 0; j < L; j++)
        if (has(stab, j)) {
            pair[i] = j;
            s[i] = bits + (size_t)i * R;
            d[i] = bits + (size_t)(k + i) * R;
            get_row(t, n, j, s[i]);
            get_row(t, n, L + j, d[i]);
            done[i++] = 0;
        }
    /* left sweep: echelon over the columns (site, X) then (site, Z) */
    for (int site = 0, r = 0; site < L; site++)
        for (int c = site; c < n; c += L) {
            int p = r;
            while (p < k && !has(s[p], c))
                p++;
            if (p == k)
                continue;
            u64 *a = s[r], *b = d[r];
            s[r] = s[p], d[r] = d[p], s[p] = a, d[p] = b;
            for (int j = r + 1; j < k; j++)
                if (has(s[j], c))
                    multiply_into(s, d, R, r, j);
            r++;
        }
    /* right sweep: sites right to left; the pivot's right endpoint is pinned */
    for (int site = L - 1; site >= 0; site--)
        for (int c = site; c < n; c += L) {
            int m = 0, p = -1, best = -1;
            for (int j = 0; j < k; j++)
                if (!done[j] && has(s[j], c))
                    cand[m++] = j;
            for (int i = 0; i < m; i++) {
                int key = left_key(s[cand[i]], L);
                if (key > best)
                    best = key, p = cand[i];
            }
            for (int i = 0; i < m; i++)
                if (cand[i] != p)
                    multiply_into(s, d, R, p, cand[i]);
            if (p >= 0)
                done[p] = 1;
        }
    for (int i = 0; i < k; i++) {
        put_row(t, n, pair[i], s[i]);
        put_row(t, n, L + pair[i], d[i]);
    }
    free(bits);
    free(rows);
    free(pair);
    return 0;
}

/* to[j] = max(below[j] + byte 0 of the uint32 at down + 4j, above[j] +
 * byte 3 of the uint32 at up + 4j) for j < count, bytes in little-endian
 * order as the mask bytes: with depths of one parity 4 bytes apart, one
 * contiguous uint32 load per depth and side. */
WIDE static void relax(int *restrict to, const int *below, const int *above,
                       const unsigned char *down, const unsigned char *up, int count)
{
    for (int j = 0; j < count; j++) {
        uint32_t d, u;
        memcpy(&d, down + 4 * (size_t)j, sizeof d);
        memcpy(&u, up + 4 * (size_t)j, sizeof u);
        int from_above = above[j] + (int)(u >> 24), from_below = below[j] + (int)(d & 255);
        to[j] = from_below > from_above ? from_below : from_above;
    }
}

/* polymer._min_energy on the C-contiguous (w, h + 1, 2) bool lattice m:
 * m[x][d][0] is the bond from depth d of column x down to d + 1, m[x][d][1]
 * the one up to d - 1. even[j] and odd[j] hold the most measured bonds on a
 * path from (a, 0) to the current column at depth 2j and 2j + 1, over the
 * band d <= min(x - a, b - x, h) that can still return to (b, 0); a
 * column's depths all share one parity, so the next column's values fill
 * the other array. A depth d >= 1 whose neighbours d - 1 and d + 1 are both
 * in the band takes max(best[d - 1] + m[x][d - 1][0], best[d + 1] +
 * m[x][d + 1][1]) in relax; depth 0 has no d - 1, and at most one depth at
 * the band's bottom has no d + 1. Returns b - a minus the count at (b, 0),
 * -1 when no path exists (an odd span, or h = 0), -2 for a query out of
 * range (before reading m) and -3 when out of memory. */
int polymer_energy(const unsigned char *m, int w, int h, int a, int b)
{
    if (h < 0 || a < 0 || b > w || a >= b)
        return -2;
    int top = h < (b - a) / 2 ? h : (b - a) / 2, half = top / 2 + 1;
    if (top == 0 || (b - a) % 2) /* a path needs depth 1 and an even span */
        return -1;
    int *even = malloc(sizeof *even * 2 * (size_t)half), *odd = even + half;
    if (!even)
        return -3;
    even[0] = 0;
    for (int x = a, lim = 0; x < b; x++) {
        const unsigned char *col = m + (size_t)x * (h + 1) * 2;
        int next = x + 1 - a < b - x - 1 ? x + 1 - a : b - x - 1;
        next = next < top ? next : top;
        int full = next < lim - 1 ? next : lim - 1; /* the deepest with both neighbours */
        if ((x + 1 - a) & 1) {
            int n = (full + 1) / 2, d = 2 * n + 1; /* odd depths 1 .. full, then d */
            relax(odd, even, even + 1, col, col + 2, n);
            if (d <= next)
                odd[n] = even[n] + col[2 * d - 2];
        } else {
            int n = full / 2, d = 2 * n + 2; /* even depths 2 .. full, then d */
            even[0] = odd[0] + col[3];
            relax(even + 1, odd, odd + 1, col + 2, col + 4, n);
            if (d <= next)
                even[n + 1] = odd[n] + col[2 * d - 2];
        }
        lim = next;
    }
    int count = even[0];
    free(even);
    return b - a - count;
}

/* numpy's PCG64: a 128-bit LCG with numpy's default multiplier and the
 * generator's odd increment, stepped before each draw, and the XSL-RR
 * output (O'Neill, HMC-CS-2014-0905). A 128-bit value is two words. */
typedef struct {
    u64 hi, lo;
} u128;

static const u128 PCG_MULT = {0x2360ed051fc65da4ULL, 0x4385df649fccf645ULL};

/* the high word of the 128-bit product a * b */
static u64 mul_high(u64 a, u64 b)
{
#ifdef __SIZEOF_INT128__
    return (u64)(((unsigned __int128)a * b) >> 64);
#else
    u64 al = a & 0xffffffffu, ah = a >> 32, bl = b & 0xffffffffu, bh = b >> 32;
    u64 lh = al * bh, hl = ah * bl;
    u64 mid = ((al * bl) >> 32) + (lh & 0xffffffffu) + (hl & 0xffffffffu);
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32);
#endif
}

/* a * b + c mod 2^128 */
static u128 mul_add(u128 a, u128 b, u128 c)
{
    u128 r = {mul_high(a.lo, b.lo) + a.lo * b.hi + a.hi * b.lo + c.hi, a.lo * b.lo + c.lo};
    r.hi += r.lo < c.lo;
    return r;
}

static u64 xsl_rr(u128 s)
{
    u64 x = s.hi ^ s.lo;
    unsigned r = (unsigned)(s.hi >> 58);
    return (x >> r) | (x << (-r & 63));
}

/* k LCG steps as one affine map s -> a s + c: a = mult^k, c = inc (mult^(k-1)
 * + ... + 1), by squaring in O(log k) multiplies (Brown, "Random number
 * generation with arbitrary strides", 1994), as numpy's PCG64.advance. */
typedef struct {
    u128 a, c;
} jump;

static jump pcg_jump(u128 inc, u64 k)
{
    u128 mult = PCG_MULT, plus = inc, zero = {0, 0};
    jump j = {{0, 1}, {0, 0}};
    for (; k; k >>= 1) {
        if (k & 1) {
            j.a = mul_add(j.a, mult, zero);
            j.c = mul_add(j.c, mult, plus);
        }
        plus = mul_add(mult, plus, plus);
        mult = mul_add(mult, mult, zero);
    }
    return j;
}

static u128 leap(jump j, u128 s)
{
    return mul_add(j.a, s, j.c);
}

/* A run of draws takes every position (stride 1, phase 0), or with stride 2
 * only the positions i with i & 2 == phase (phase 0 or 2): in a pinned
 * column, the two bonds of each depth of the column's parity. The other
 * positions step the LCG but get 0. */

/* out[i] for i < n, one LCG step per position from the state s before
 * position 0 */
static void draw_plain(u128 s, u128 inc, u64 threshold, int64_t n, unsigned char *out, int stride,
                       int phase)
{
    int64_t pick = 2 * (stride - 1); /* i & pick == phase: 0 == 0 at stride 1 */
    for (int64_t i = 0; i < n; i++) {
        s = mul_add(s, PCG_MULT, inc);
        out[i] = (i & pick) == phase && (xsl_rr(s) >> 11) < threshold;
    }
}

#ifdef LANES
/* 1 when the CPU runs the AVX-512 instructions draw_lanes is built for */
static int has_lanes(void)
{
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")
           && __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512dq");
}

/* Eight 128-bit values, one per 64-bit lane, as four 32-bit limbs l[0..3]
 * (least significant first), each in the low half of its lane. The high
 * half may hold carry bits: _mm512_mul_epu32 reads only the low half,
 * octet_bonds moves the low halves into place and _mm512_rorv_epi64 takes
 * its count mod 64. */
typedef struct {
    __m512i l[4];
} octet;

/* s = a s + c mod 2^128 in every lane, for per-lane a and c: column k of
 * the product sums the low halves of the limb products a_j s_(k-j), the
 * high halves of those of column k - 1, c's limb k and the carry; ten
 * 32 x 32 -> 64-bit multiplies, none of column 4 or above. Each column sum
 * stays below 2^36, and its low half is limb k. */
LANES static inline void octet_mul_add(octet *s, const octet *a, const octet *c)
{
    const __m512i low = _mm512_set1_epi64(0xffffffff);
    __m512i p[4][4], t, carry;
    for (int i = 0; i < 4; i++)
        for (int j = 0; i + j < 4; j++)
            p[i][j] = _mm512_mul_epu32(s->l[i], a->l[j]);
    t = _mm512_add_epi64(p[0][0], c->l[0]);
    s->l[0] = t;
    carry = _mm512_srli_epi64(t, 32);
    for (int k = 1; k < 3; k++) {
        t = _mm512_add_epi64(carry, c->l[k]);
        carry = _mm512_setzero_si512();
        for (int j = 0; j <= k; j++) {
            t = _mm512_add_epi64(t, _mm512_and_si512(p[k - j][j], low));
            carry = _mm512_add_epi64(carry, _mm512_srli_epi64(p[k - j][j], 32));
        }
        s->l[k] = t;
        carry = _mm512_add_epi64(carry, _mm512_srli_epi64(t, 32));
    }
    t = _mm512_add_epi64(carry, c->l[3]);
    for (int j = 0; j < 4; j++)
        t = _mm512_add_epi64(t, p[3 - j][j]);
    s->l[3] = t;
}

/* The eight lanes' bits (XSL-RR output >> 11) < threshold: the output
 * rotates (high word ^ low word) right by the top 6 bits of the state. */
LANES static inline __mmask8 octet_bonds(const octet *s, __m512i threshold)
{
    __m512i x = _mm512_mask_blend_epi32(0xaaaa, _mm512_xor_si512(s->l[2], s->l[0]),
                                        _mm512_slli_epi64(_mm512_xor_si512(s->l[3], s->l[1]), 32));
    __m512i out = _mm512_rorv_epi64(x, _mm512_srli_epi64(s->l[3], 26));
    return _mm512_cmplt_epu64_mask(_mm512_srli_epi64(out, 11), threshold);
}

/* The octet of v[0], ..., v[7], or with stride 0 of v[0] in every lane */
LANES static octet to_octet(const u128 *v, int stride)
{
    u64 limbs[4][8];
    for (int k = 0; k < 8; k++) {
        u128 x = v[k * stride];
        limbs[0][k] = x.lo & 0xffffffff;
        limbs[1][k] = x.lo >> 32;
        limbs[2][k] = x.hi & 0xffffffff;
        limbs[3][k] = x.hi >> 32;
    }
    octet o;
    for (int j = 0; j < 4; j++)
        o.l[j] = _mm512_loadu_si512(limbs[j]);
    return o;
}

/* The lane loop's constants for one stride, made once per draw_bonds call.
 * Lane k (of octet k / 8) draws positions 2 stride (k / 2) + k % 2 + phase
 * + 16 stride t, t = 0, 1, ...: its first state is first[phase / 2][k / 8]
 * applied to the state before position 0, and each step every lane jumps
 * 16 stride LCG steps (step). */
typedef struct {
    octet first_a[2][2], first_c[2][2], step_a, step_c;
    int stride;
} lanes;

LANES static void lanes_init(lanes *q, u128 inc, int stride)
{
    u128 a[33] = {{0, 1}}, c[33] = {{0, 0}}, zero = {0, 0}; /* j steps: a[j] s + c[j] */
    for (int j = 1; j <= 32; j++) {
        a[j] = mul_add(a[j - 1], PCG_MULT, zero);
        c[j] = mul_add(c[j - 1], PCG_MULT, inc);
    }
    for (int phase = 0; phase <= 2 * (stride - 1); phase += 2) {
        u128 first_a[16], first_c[16];
        for (int k = 0; k < 16; k++) {
            int steps = 2 * stride * (k >> 1) + (k & 1) + phase + 1;
            first_a[k] = a[steps];
            first_c[k] = c[steps];
        }
        for (int half = 0; half < 2; half++) {
            q->first_a[phase / 2][half] = to_octet(first_a + 8 * half, 1);
            q->first_c[phase / 2][half] = to_octet(first_c + 8 * half, 1);
        }
    }
    q->step_a = to_octet(&a[16 * stride], 0);
    q->step_c = to_octet(&c[16 * stride], 0);
    q->stride = stride;
}

/* 16 bits, bit k to bit 4 (k / 2) + k % 2: each pair of lanes to the
 * first two bytes of its four */
static inline uint32_t spread_pairs(uint32_t x)
{
    x = (x | x << 8) & 0x00ff00ff;
    x = (x | x << 4) & 0x0f0f0f0f;
    return (x | x << 2) & 0x33333333;
}

/* The 16 lanes' bonds as bits; at stride 2 each pair of lanes moves to the
 * first two of its four places among 32, shifted by phase */
LANES static inline uint32_t lane_bits(const octet *lo, const octet *hi, __m512i limit, int64_t span,
                                       int phase)
{
    uint32_t bits = octet_bonds(lo, limit) | (uint32_t)octet_bonds(hi, limit) << 8;
    return span == 32 ? spread_pairs(bits) << phase : bits;
}

/* draw_plain's out[i] for i < n, 16 stride positions per step, each
 * step's bytes in one store (0 at the other parity at stride 2); a last
 * part step stores them masked to end at n. The constants live in
 * locals: through the char pointer out, a store could alias q. */
LANES static void draw_lanes(const lanes *q, u128 s, u64 threshold, int64_t n, unsigned char *out,
                             int phase)
{
    octet lo = to_octet(&s, 0), hi = lo;
    octet_mul_add(&lo, &q->first_a[phase / 2][0], &q->first_c[phase / 2][0]);
    octet_mul_add(&hi, &q->first_a[phase / 2][1], &q->first_c[phase / 2][1]);
    const octet step_a = q->step_a, step_c = q->step_c;
    const __m512i limit = _mm512_set1_epi64((long long)threshold);
    const __m256i one = _mm256_set1_epi8(1);
    const int64_t span = 16 * q->stride;
    int64_t i = 0;
    for (; i + span <= n; i += span) {
        __m256i bytes = _mm256_maskz_mov_epi8(lane_bits(&lo, &hi, limit, span, phase), one);
        if (span == 32)
            _mm256_storeu_si256((__m256i *)(out + i), bytes);
        else
            _mm_storeu_si128((__m128i *)(out + i), _mm256_castsi256_si128(bytes));
        octet_mul_add(&lo, &step_a, &step_c);
        octet_mul_add(&hi, &step_a, &step_c);
    }
    if (i < n)
        _mm256_mask_storeu_epi8(out + i, (1u << (n - i)) - 1,
                                _mm256_maskz_mov_epi8(lane_bits(&lo, &hi, limit, span, phase), one));
}
#endif

/* One draw_bonds call: columns of `column` positions, `width` of them.
 * With pinned each column is a lattice column (x, d, s) at position
 * 2 d + s, and only its first 2 (min(x, width - x, h) + 1) positions are
 * drawn, at the parity of x; h = column / 2 - 1. */
typedef struct {
    u128 inc;
    u64 threshold;
    int64_t width, column;
    int pinned;
    unsigned char *out;
    jump skip; /* one column's LCG steps */
#ifdef LANES
    int use_lanes; /* the CPU has AVX-512: the lanes draw every run */
    lanes lane;
#endif
} plan;

/* draw_plain's out[i] for i < n, in the lanes when the CPU has them */
static void draw_run(const plan *q, u128 s, int64_t n, unsigned char *out, int stride, int phase)
{
#ifdef LANES
    if (q->use_lanes) {
        draw_lanes(&q->lane, s, q->threshold, n, out, phase);
        return;
    }
#endif
    draw_plain(s, q->inc, q->threshold, n, out, stride, phase);
}

/* draw_bonds splits the columns into at most MAX_THREADS groups of whole
 * columns, each spanning at least MIN_SEGMENT positions, and draws them on
 * as many threads. */
#define MAX_THREADS 8
#define MIN_SEGMENT ((int64_t)1 << 19)

/* One thread's columns, alone on their cache lines, so that no thread's
 * writes share a line with another thread's record. */
typedef struct {
    _Alignas(64) u128 start; /* the state before the group's first position */
    u128 end;                /* the state after its last */
    int64_t first, count;    /* its columns */
    const plan *q;
} group;

static void *draw_group(void *arg)
{
    group *g = arg;
    const plan *q = g->q;
    unsigned char *out = q->out + g->first * q->column;
    if (!q->pinned) {
        int64_t n = g->count * q->column;
        draw_run(q, g->start, n, out, 1, 0);
        g->end = leap(pcg_jump(q->inc, (u64)n), g->start);
        return NULL;
    }
    int64_t h = q->column / 2 - 1;
    u128 s = g->start;
    for (int64_t x = g->first; x < g->first + g->count; x++, out += q->column) {
        int64_t top = x < q->width - x ? x : q->width - x;
        int64_t n = 2 * ((top < h ? top : h) + 1);
        draw_run(q, s, n, out, 2, 2 * (int)(x & 1));
        memset(out + n, 0, (size_t)(q->column - n));
        s = leap(q->skip, s);
    }
    g->end = s;
    return NULL;
}

/* out[i] = (draw i >> 11) < threshold for the width x column positions i,
 * with state = {state hi, state lo, increment hi, increment lo} of numpy's
 * PCG64, then the state after the last draw written back to state[0..1];
 * with threshold ceil(p 2^53) out is rng.random(n) < p. With pinned, out
 * is a (width, column / 2, 2) lattice and only the bonds a path from (0, 0)
 * to (width, 0) can visit are drawn, each from its own place in the stream
 * (plan); the others are 0, and the state ends where the full draw leaves
 * it. Group k starts from the exact state before its first column, by
 * jump-ahead, so the bits do not depend on threads. The calling thread
 * draws group 0 and every group whose thread could not start, and joins
 * every thread before it returns. */
void draw_bonds(u64 *state, u64 threshold, int64_t width, int64_t column, int pinned,
                unsigned char *out, int threads)
{
    if (width <= 0 || column <= 0)
        return;
    int64_t parts = width * column / MIN_SEGMENT;
    parts = parts < threads ? parts : threads;
    parts = parts < MAX_THREADS ? parts : MAX_THREADS;
    parts = parts > 1 ? parts : 1;
    int64_t length = width / parts;
    u128 s = {state[0], state[1]}, inc = {state[2], state[3]};
    plan q = {.inc = inc, .threshold = threshold, .width = width, .column = column,
              .pinned = pinned, .out = out, .skip = pcg_jump(inc, (u64)column)};
#ifdef LANES
    q.use_lanes = has_lanes();
    if (q.use_lanes)
        lanes_init(&q.lane, inc, pinned ? 2 : 1);
#endif
    group g[MAX_THREADS];
    pthread_t tid[MAX_THREADS];
    int started[MAX_THREADS] = {0};
    for (int k = 0; k < parts; k++) {
        g[k] = (group){.start = leap(pcg_jump(inc, (u64)(k * length * column)), s),
                       .first = k * length, .count = k + 1 < parts ? length : width - k * length,
                       .q = &q};
        if (k > 0)
            started[k] = pthread_create(&tid[k], NULL, draw_group, &g[k]) == 0;
    }
    draw_group(&g[0]);
    for (int k = 1; k < parts; k++) {
        if (started[k])
            pthread_join(tid[k], NULL);
        else
            draw_group(&g[k]);
    }
    state[0] = g[parts - 1].end.hi;
    state[1] = g[parts - 1].end.lo;
}
