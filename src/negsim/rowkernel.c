/* Row kernel for the column-packed stabilizer tableau of negsim.stabilizer.
 *
 * The tableau is a C-contiguous (W, n) uint64 array with n = 2L columns and
 * W = ceil(n / 64) words per column: bit r % 64 of word [r / 64][c] is entry
 * c of tableau row r (Gidney's layout, arXiv:2103.02202). Rows j and L + j
 * form pair j. The stabilizer mask (bit j set when pair j holds a
 * stabilizer) arrives as the little-endian bytes of a Python int, S words.
 *
 * Every update makes the row operations of the numpy code it stands in for
 * (stabilizer._collapse_rows, channels._dephase_inplace and
 * channels._apply_tables_inplace), in the same order, so both leave the same
 * bits. apply_layer makes a runner flush's dephasing, gates and Z
 * measurements in one call, and record_ranks a record's three ranks.
 * Nothing here reads or writes a sign. A site, column or gate class out of
 * range makes a call return -2 before it changes anything; the Python side
 * checks the tableau's shape and dtype and the length of every byte
 * argument.
 *
 * The library also holds polymer_energy, the ground-state DP of
 * polymer._min_energy on the bool bond lattice of a PolymerLattice. It
 * returns -2 for a query out of range before it reads the lattice; the
 * Python side checks the lattice's shape, dtype and layout.
 */
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

WIDE static void clear_row(u64 *t, int n, int r)
{
    u64 *row = t + (size_t)(r >> 6) * n, keep = ~BIT(r);
    for (int c = 0; c < n; c++)
        row[c] &= keep;
}

/* row r <- the row whose only entry is column c */
static void unit_row(u64 *t, int n, int r, int c)
{
    clear_row(t, n, r);
    t[(size_t)(r >> 6) * n + c] |= BIT(r);
}

/* row x ^= row src for every row x set in the W-word mask targets */
WIDE static void xor_row(u64 *t, int n, int W, int src, const u64 *targets)
{
    const u64 *from = t + (size_t)(src >> 6) * n;
    int s = src & 63;
    for (int w = 0; w < W; w++) {
        u64 m = targets[w], *row = t + (size_t)w * n;
        if (m)
            for (int c = 0; c < n; c++)
                row[c] ^= m & (0 - ((from[c] >> s) & 1));
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
    int n = 2 * L, W = (n + 63) / 64, S = (L + 63) / 64, p = -1, q = -1;
    u64 anti[W];
    column(t, n, W, site, anti);
    for (int w = 0; w < S && p < 0; w++) {
        u64 hit = anti[w] & stab[w];
        if (hit)
            p = 64 * w + __builtin_ctzll(hit);
    }
    if (p >= 0) { /* (b): S_p into the other anticommuting rows and into D_p */
        clear_row(t, n, L + p);
        anti[p >> 6] &= ~BIT(p);
        anti[(L + p) >> 6] |= BIT(L + p);
        xor_row(t, n, W, p, anti);
        unit_row(t, n, p, L + site);
        return 1;
    }
    for (int w = 0; w < W && q < 0; w++) /* lowest anticommuting logical row */
        for (u64 m = anti[w]; m && q < 0; m &= m - 1) {
            int r = 64 * w + __builtin_ctzll(m);
            if (!has(stab, r < L ? r : r - L))
                q = r;
        }
    if (q < 0) /* (a): deterministic, nothing changes */
        return 0;
    int pair = q % L; /* (c) */
    anti[q >> 6] &= ~BIT(q);
    if (q == pair) {
        clear_row(t, n, L + pair);
        anti[(L + pair) >> 6] |= BIT(L + pair);
    } else {
        anti[pair >> 6] &= ~BIT(pair);
    }
    xor_row(t, n, W, q, anti);
    unit_row(t, n, pair, L + site);
    stab[pair >> 6] |= BIT(pair);
    return 1;
}

/* Dephase at column col: channels._dephase_inplace. S_p, the lowest
 * stabilizer hit, goes into the other hit stabilizers, their destabilizers
 * into D_p, and the bit of p is cleared in stab. Returns p or -1. */
WIDE static int dephase_column(u64 *t, int L, u64 *stab, int col)
{
    int n = 2 * L, W = (n + 63) / 64, S = (L + 63) / 64;
    u64 others[W], partners[W];
    memset(others, 0, sizeof others);
    memset(partners, 0, sizeof partners);
    for (int w = 0; w < S; w++)
        others[w] = t[(size_t)w * n + col] & stab[w];
    int p = lowest(others, S);
    if (p < 0)
        return -1;
    stab[p >> 6] &= ~BIT(p);
    others[p >> 6] &= ~BIT(p);
    if (lowest(others, S) < 0)
        return p;
    xor_row(t, n, W, p, others);
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
    return p;
}

/* dephase_column on the mask bytes, which stay as they are: the caller
 * clears the mask bit of the returned p */
int dephase(u64 *t, int L, const unsigned char *mask, int col)
{
    int S = (L + 63) / 64;
    if (col < 0 || col >= 2 * L)
        return -2;
    u64 stab[S];
    load_mask(mask, S, stab);
    return dephase_column(t, L, stab, col);
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

/* One gate per site pair (ci[g], cj[g]): channels._apply_tables_inplace.
 * maps holds m maps as gate reads them; ci and cj are int64. The pairs
 * must be disjoint. */
int apply_gates(u64 *t, int L, const unsigned char *maps, const unsigned char *ci,
                const unsigned char *cj, int m)
{
    if (!sites_ok(ci, m, L) || !sites_ok(cj, m, L))
        return -2;
    for (int g = 0; g < m; g++) {
        u64 map[16];
        memcpy(map, maps + sizeof map * (size_t)g, sizeof map);
        gate(t, L, map, site_at(ci, g), site_at(cj, g));
    }
    return 0;
}

/* One flush of the runner, in its order: dephase the ncols int64 tableau
 * columns cols, apply the ngates gates of a brickwork layer (gate g on the
 * sites (gates[g], gates[g] + 1) with the map tables + 16 * classes[g],
 * tables being the (720, 4, 4) array of channels._class_tables), then
 * measure Z on the nsites int64 sites. The mask bytes are updated in place.
 * Returns the number of random outcomes (cases b and c), or -2 before any
 * bit changes when a column, site or class is out of range. */
int apply_layer(u64 *t, int L, unsigned char *mask, const u64 *tables,
                const unsigned char *cols, int ncols, const unsigned char *gates,
                const unsigned char *classes, int ngates, const unsigned char *sites,
                int nsites)
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

/* Rank of the stabilizer rows on the X and Z columns of count sites (int64),
 * as entanglement.entropy needs it: each column is a vector over the rows,
 * masked to the stabilizers stab. Returns -1 when out of memory. */
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

int region_rank(const u64 *t, int L, const unsigned char *mask,
                const unsigned char *sites, int count)
{
    int S = (L + 63) / 64;
    if (!sites_ok(sites, count, L))
        return -2;
    u64 stab[S];
    load_mask(mask, S, stab);
    return rank_on(t, L, stab, sites, count);
}

/* Rank of J = X_A Z_A^T + Z_A X_A^T over the stabilizer rows, where X_A and
 * Z_A are their bits on count sites (int64): entanglement.negativity's
 * rank. J is built column by column: column s adds X_c for each site c
 * with z_sc = 1 and Z_c for each c with x_sc = 1. Returns -1 when out of
 * memory. */
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

int negativity_rank(const u64 *t, int L, const unsigned char *mask,
                    const unsigned char *sites, int count)
{
    int S = (L + 63) / 64;
    if (!sites_ok(sites, count, L))
        return -2;
    u64 stab[S];
    load_mask(mask, S, stab);
    return negativity_on(t, L, stab, sites, count);
}

/* The three ranks of one record of a bipartition (A, B) that covers the
 * chain, given A's nregion sites region and B's nrest sites rest:
 * out[0] = region_rank on B (S_A's), out[1] = region_rank on A (S_B's) and
 * out[2] = negativity_rank on A. Returns 0, -1 when out of memory, or -2
 * before it reads the tableau when a site is out of range. */
int record_ranks(const u64 *t, int L, const unsigned char *mask, const unsigned char *region,
                 int nregion, const unsigned char *rest, int nrest, int *out)
{
    int S = (L + 63) / 64;
    if (!sites_ok(region, nregion, L) || !sites_ok(rest, nrest, L))
        return -2;
    u64 stab[S];
    load_mask(mask, S, stab);
    out[0] = rank_on(t, L, stab, rest, nrest);
    out[1] = rank_on(t, L, stab, region, nregion);
    out[2] = negativity_on(t, L, stab, region, nregion);
    return out[0] < 0 || out[1] < 0 || out[2] < 0 ? -1 : 0;
}

/* out[i][c] = the X bit at site c of the i-th stabilizer row, rows in
 * increasing order: the (k, L) 0/1 block of StabilizerState._x, with k the
 * popcount of stab. Returns k. */
int stabilizer_x(const u64 *t, int L, const unsigned char *stab, unsigned char *out)
{
    int n = 2 * L, S = (L + 63) / 64, i = 0;
    for (int w = 0; w < S; w++) { /* stabilizer rows sit below L, in word w */
        const u64 *row = t + (size_t)w * n;
        for (u64 m = load(stab, w); m; m &= m - 1, i++)
            for (int c = 0, s = __builtin_ctzll(m); c < L; c++)
                out[(size_t)i * L + c] = (row[c] >> s) & 1;
    }
    return i;
}

/* polymer._min_energy on the C-contiguous (w, h + 1, 2) bool lattice m:
 * m[x][d][0] is the bond from depth d of column x down to d + 1, m[x][d][1]
 * the one up to d - 1. best[d] holds the most measured bonds on a path from
 * (a, 0) to the current column at depth d, over the band d <= min(x - a,
 * b - x, h) that can still return to (b, 0); a column's depths all share
 * one parity, so the next column's values fill the other parity in place.
 * Returns b - a minus the count at (b, 0), -1 when no path exists, -2 for a
 * query out of range (before reading m) and -3 when out of memory. */
int polymer_energy(const unsigned char *m, int w, int h, int a, int b)
{
    if (h < 0 || a < 0 || b > w || a >= b)
        return -2;
    int top = h < (b - a) / 2 ? h : (b - a) / 2, none = -(1 << 30);
    int *best = malloc(sizeof *best * ((size_t)top + 2));
    if (!best)
        return -3;
    best[0] = 0;
    for (int x = a, lim = 0; x < b; x++) {
        const unsigned char *col = m + (size_t)x * (h + 1) * 2;
        int next = x + 1 - a < b - x - 1 ? x + 1 - a : b - x - 1;
        next = next < top ? next : top;
        for (int d = (x + 1 - a) & 1; d <= next; d += 2) {
            int down = d >= 1 ? best[d - 1] + col[2 * d - 2] : none;
            int up = d + 1 <= lim ? best[d + 1] + col[2 * d + 3] : none;
            best[d] = down > up ? down : up;
        }
        lim = next;
    }
    int count = (b - a) % 2 ? -1 : best[0];
    free(best);
    return count < 0 ? -1 : b - a - count;
}
