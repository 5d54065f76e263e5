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
 * bits are read once, then each word holding a cleared or target row is
 * updated. record_ranks reads the tableau: the three ranks behind every
 * entropy, negativity and record of negsim.entanglement, which
 * run_trajectory's records take from the same code.
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
 * bit_generator.state under its lock. It draws a large lattice in
 * contiguous segments on pthreads, each from its exact PCG64 state by
 * jump-ahead, and joins them all before it returns. Built by GCC on x86-64
 * glibc and run on a CPU with AVX-512 (F, BW, VL and DQ, checked at each
 * call), a segment is drawn 16 PCG64 lanes at a time; elsewhere, and for a
 * segment's last n % 16 bonds, one plain loop steps the LCG once per bond.
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
 * clear may be NULL. */
WIDE static void update_rows(u64 *t, int n, int W, int src, const u64 *targets,
                             const u64 *clear)
{
    const u64 *from = t + (size_t)(src >> 6) * n;
    int s = src & 63;
    u64 bits[64];
    for (int c0 = 0; c0 < n; c0 += 64) {
        int m = n - c0 < 64 ? n - c0 : 64;
        for (int c = 0; c < m; c++)
            bits[c] = 0 - ((from[c0 + c] >> s) & 1);
        for (int w = 0; w < W; w++) {
            u64 x = targets[w], keep = clear ? ~clear[w] : ~(u64)0;
            u64 *row = t + (size_t)w * n + c0;
            if (x | ~keep)
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
 * into D_p, and the bit of p is cleared in stab. */
WIDE static void dephase_column(u64 *t, int L, u64 *stab, int col)
{
    int n = 2 * L, W = (n + 63) / 64, S = (L + 63) / 64;
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
    u64 *target = t + (size_t)((L + p) >> 6) * n;
    for (int c = 0; c < n; c++) {
        int parity = 0;
        for (int w = 0; w < W; w++)
            parity ^= __builtin_popcountll(t[(size_t)w * n + c] & partners[w]) & 1;
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

/* Rank of the stabilizer rows on the X and Z columns of count sites (int64):
 * each column is a vector over the rows, masked to the stabilizers stab.
 * Returns -1 when out of memory. */
static int rank_on(const u64 *t, int L, const u64 *stab, const unsigned char *sites, int count)
{
    int n = 2 * L, S = (L + 63) / 64, k = 0;
    for (int w = 0; w < S; w++)
        k += __builtin_popcountll(stab[w]);
    u64 *v = malloc(sizeof *v * S * (2 * (size_t)count + 1));
    int *owner = malloc(sizeof *owner * 64 * (size_t)S);
    if (!v || !owner) {
        free(v);
        free(owner);
        return -1;
    }
    for (int i = 0; i < count; i++) {
        int64_t site = site_at(sites, i);
        for (int w = 0; w < S; w++) {
            v[(size_t)(2 * i) * S + w] = t[(size_t)w * n + site] & stab[w];
            v[(size_t)(2 * i + 1) * S + w] = t[(size_t)w * n + L + site] & stab[w];
        }
    }
    int rank = rank_vectors(v, 2 * count, S, k, owner);
    free(v);
    free(owner);
    return rank;
}

/* Rank of J = X_A Z_A^T + Z_A X_A^T over the stabilizer rows, where X_A and
 * Z_A are their bits on count sites (int64). J is built column by column:
 * column s adds X_c for each site c with z_sc = 1 and Z_c for each c with
 * x_sc = 1. Returns -1 when out of memory. */
static int negativity_on(const u64 *t, int L, const u64 *stab, const unsigned char *sites,
                         int count)
{
    int n = 2 * L, S = (L + 63) / 64, k = 0;
    u64 x[S], z[S];
    u64 *J = calloc((size_t)L * S, sizeof *J);
    int *owner = malloc(sizeof *owner * 64 * (size_t)S);
    if (!J || !owner) {
        free(J);
        free(owner);
        return -1;
    }
    for (int i = 0; i < count; i++) {
        int64_t site = site_at(sites, i);
        for (int w = 0; w < S; w++) {
            x[w] = t[(size_t)w * n + site] & stab[w];
            z[w] = t[(size_t)w * n + L + site] & stab[w];
        }
        for (int w = 0; w < S; w++) {
            for (u64 m = z[w]; m; m &= m - 1)
                for (int u = 0; u < S; u++)
                    J[(size_t)(64 * w + __builtin_ctzll(m)) * S + u] ^= x[u];
            for (u64 m = x[w]; m; m &= m - 1)
                for (int u = 0; u < S; u++)
                    J[(size_t)(64 * w + __builtin_ctzll(m)) * S + u] ^= z[u];
        }
    }
    for (int r = 0; r < L; r++) /* keep the stabilizer columns, in order */
        if (has(stab, r))
            memmove(J + (size_t)k++ * S, J + (size_t)r * S, sizeof *J * S);
    int rank = rank_vectors(J, k, S, k, owner);
    free(J);
    free(owner);
    return rank;
}

/* The three ranks of entanglement._ranks for disjoint site sets A and B,
 * given A's nregion sites region and B's nrest sites rest: out[0] = rank_on
 * B (S_A's), out[1] = rank_on A (S_B's) and out[2] = negativity_on A (E's).
 * They serve any A and B once the sites outside A u B are traced out, and
 * entropy as A = R, B = the rest of the chain. Returns 0, -1 when out of
 * memory, or -2 before it reads the tableau when a site is out of range. */
static int ranks(const u64 *t, int L, const u64 *stab, const unsigned char *region,
                 int nregion, const unsigned char *rest, int nrest, int *out)
{
    out[0] = rank_on(t, L, stab, rest, nrest);
    out[1] = rank_on(t, L, stab, region, nregion);
    out[2] = negativity_on(t, L, stab, region, nregion);
    return out[0] < 0 || out[1] < 0 || out[2] < 0 ? -1 : 0;
}

int record_ranks(const u64 *t, int L, const unsigned char *mask, const unsigned char *region,
                 int nregion, const unsigned char *rest, int nrest, int *out)
{
    int S = (L + 63) / 64;
    if (!sites_ok(region, nregion, L) || !sites_ok(rest, nrest, L))
        return -2;
    u64 stab[S];
    load_mask(mask, S, stab);
    return ranks(t, L, stab, region, nregion, rest, nrest, out);
}

/* One trajectory of circuit.run_trajectory from the state t, mask on T
 * layers, drawing from g in circuit._layer_ops' order. Layer l = 1..T:
 * draw_layer's draws for the gates on (c, c + 1), c = 0, 2, .. on odd l and
 * 1, 3, .. on even l; the gates; Z measurements on the sites drawn, then
 * one outcome bit per random outcome; dephasing of sites 0 and L - 1 when
 * every > 0 and l % every == 0, else of the m sites of draw_sites when
 * m > 0. Every stride layers and at T, the half cut A = [0, L/2),
 * B = [L/2, L) gets a record of 4 int16 in out: S_A, S_B, S_AB and 2E,
 * from ranks as entanglement._observables reads them. The mask bytes are
 * updated in place. Returns 0, -1 when out of memory, or -2 before it
 * changes or draws anything when an argument is out of range. */
int run_trajectory(u64 *t, int L, unsigned char *mask, const u64 *tables, bitgen_t *g,
                   int T, double p, int every, int m, int stride, int16_t *out)
{
    int S = (L + 63) / 64, half = L / 2, code = 0, r[3];
    if (L < 2 || L & 1 || L > 32766 || T < 1 || !(p >= 0 && p <= 1) || every < 0 || m < 0
        || m > L || stride < 1)
        return -2;
    int64_t *drawn = malloc(sizeof *drawn * (2 * (size_t)half + L));
    int64_t *sites = malloc(sizeof *sites * (size_t)L);
    if (!drawn || !sites) {
        free(drawn);
        free(sites);
        return -1;
    }
    for (int s = 0; s < L; s++)
        sites[s] = s; /* A's sites, then B's */
    const unsigned char *a = (const unsigned char *)sites, *b = (const unsigned char *)(sites + half);
    u64 stab[S];
    load_mask(mask, S, stab);
    for (int l = 1; l <= T && code == 0; l++) {
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
            code = ranks(t, L, stab, a, half, b, half, r);
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
    return code;
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

/* s advanced by k LCG steps: mult^k s + inc (mult^(k-1) + ... + 1), by
 * squaring in O(log k) multiplies (Brown, "Random number generation with
 * arbitrary strides", 1994), as numpy's PCG64.advance. */
static u128 pcg_advance(u128 s, u128 inc, u64 k)
{
    u128 mult = PCG_MULT, plus = inc, acc_mult = {0, 1}, acc_plus = {0, 0}, zero = {0, 0};
    for (; k; k >>= 1) {
        if (k & 1) {
            acc_mult = mul_add(acc_mult, mult, zero);
            acc_plus = mul_add(acc_plus, mult, plus);
        }
        plus = mul_add(mult, plus, plus);
        mult = mul_add(mult, mult, zero);
    }
    return mul_add(acc_mult, s, acc_plus);
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

/* s = a s + c mod 2^128 in every lane, for constants a and c: column k of
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

/* out[i] = (draw i >> 11) < threshold for the first n - n % 16 draws from
 * the PCG64 state s before draw 0, sixteen at a time; returns how many it
 * drew. Lane k of the two octets holds the state draw k is made from, and
 * every lane then jumps 16 LCG steps at once (mult^16, plus^16). */
LANES static int64_t draw_lanes(u128 s, u128 inc, u64 threshold, int64_t n, unsigned char *out)
{
    u128 first[16], a = {0, 1}, c = {0, 0}, zero = {0, 0};
    for (int k = 0; k < 16; k++) {
        first[k] = s = mul_add(s, PCG_MULT, inc);
        a = mul_add(a, PCG_MULT, zero);
        c = mul_add(c, PCG_MULT, inc);
    }
    octet lo = to_octet(first, 1), hi = to_octet(first + 8, 1);
    const octet jump = to_octet(&a, 0), step = to_octet(&c, 0);
    const __m512i limit = _mm512_set1_epi64((long long)threshold);
    const __m128i one = _mm_set1_epi8(1);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __mmask16 bits = (__mmask16)(octet_bonds(&lo, limit) | octet_bonds(&hi, limit) << 8);
        _mm_storeu_si128((__m128i *)(out + i), _mm_maskz_mov_epi8(bits, one));
        octet_mul_add(&lo, &jump, &step);
        octet_mul_add(&hi, &jump, &step);
    }
    return i;
}
#endif

/* out[i] = (draw i >> 11) < threshold for i < n, from the PCG64 state s
 * before draw 0; returns the state after the last draw. Draw i's top 53
 * bits are the double rng.random() makes of it times 2^53. On a CPU with
 * AVX-512 draw_lanes draws all but the n % 16 last bonds, and the state
 * after them comes by jump-ahead; the plain loop, one LCG step per bond,
 * draws the rest. The state lives in a local: through the char pointer
 * out, a store could alias any state kept in memory. */
static u128 draw_segment(u128 s, u128 inc, u64 threshold, int64_t n, unsigned char *out)
{
    int64_t i = 0;
#ifdef LANES
    if (n >= 16 && has_lanes()) {
        i = draw_lanes(s, inc, threshold, n, out);
        s = pcg_advance(s, inc, (u64)i);
    }
#endif
    for (; i < n; i++) {
        s = mul_add(s, PCG_MULT, inc);
        out[i] = (xsl_rr(s) >> 11) < threshold;
    }
    return s;
}

/* draw_bonds splits the bonds into at most MAX_THREADS contiguous segments
 * of at least MIN_SEGMENT draws each, and draws them on as many threads. */
#define MAX_THREADS 8
#define MIN_SEGMENT ((int64_t)1 << 19)

/* One thread's segment, alone on its cache lines, so that no thread's
 * writes share a line with another thread's record. */
typedef struct {
    _Alignas(64) u128 start; /* the state before the segment's first draw */
    u128 inc, end;           /* end: the state after its last draw */
    u64 threshold;
    int64_t n;
    unsigned char *out;
} segment;

static void *draw_thread(void *arg)
{
    segment *g = arg;
    g->end = draw_segment(g->start, g->inc, g->threshold, g->n, g->out);
    return NULL;
}

/* out[i] = (draw i >> 11) < threshold for i < n, with state = {state hi,
 * state lo, increment hi, increment lo} of numpy's PCG64, then the state
 * after the last draw written back to state[0..1]; with threshold
 * ceil(p 2^53) out is rng.random(n) < p. Segment k starts from the exact
 * state before its first draw, by jump-ahead, so the bits do not depend on
 * threads. The calling thread draws segment 0 and every segment whose
 * thread could not start, and joins every thread before it returns. */
void draw_bonds(u64 *state, u64 threshold, int64_t n, unsigned char *out, int threads)
{
    if (n <= 0)
        return;
    int64_t parts = n / MIN_SEGMENT;
    parts = parts < threads ? parts : threads;
    parts = parts < MAX_THREADS ? parts : MAX_THREADS;
    parts = parts > 1 ? parts : 1;
    int64_t length = n / parts;
    u128 s = {state[0], state[1]}, inc = {state[2], state[3]};
    segment seg[MAX_THREADS];
    pthread_t tid[MAX_THREADS];
    int started[MAX_THREADS] = {0};
    for (int k = 0; k < parts; k++) {
        seg[k] = (segment){.start = pcg_advance(s, inc, (u64)(k * length)), .inc = inc,
                           .threshold = threshold, .n = k + 1 < parts ? length : n - k * length,
                           .out = out + k * length};
        if (k > 0)
            started[k] = pthread_create(&tid[k], NULL, draw_thread, &seg[k]) == 0;
    }
    draw_thread(&seg[0]);
    for (int k = 1; k < parts; k++) {
        if (started[k])
            pthread_join(tid[k], NULL);
        else
            draw_thread(&seg[k]);
    }
    state[0] = seg[parts - 1].end.hi;
    state[1] = seg[parts - 1].end.lo;
}
