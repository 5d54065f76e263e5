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
 * bits. Nothing here reads or writes a sign. A site or column out of range
 * makes a call return -2 before it changes anything; the Python side checks
 * the tableau's shape and dtype and the length of every byte argument.
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

static void clear_row(u64 *t, int n, int r)
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
static void xor_row(u64 *t, int n, int W, int src, const u64 *targets)
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

/* Measure Z_site: stabilizer._collapse_rows with h = Z_site, whose
 * anticommuting rows are column site. Returns p in case (b) (stabilizer p
 * anticommuted), L + p in case (c) (pair p gains a stabilizer; the caller
 * sets its mask bit) and -1 in case (a). */
int measure_z(u64 *t, int L, const unsigned char *stab, int site)
{
    int n = 2 * L, W = (n + 63) / 64, S = (L + 63) / 64, p = -1, q = -1;
    if (site < 0 || site >= L)
        return -2;
    u64 anti[W];
    column(t, n, W, site, anti);
    for (int w = 0; w < S && p < 0; w++) {
        u64 hit = anti[w] & load(stab, w);
        if (hit)
            p = 64 * w + __builtin_ctzll(hit);
    }
    if (p >= 0) { /* (b): S_p into the other anticommuting rows and into D_p */
        clear_row(t, n, L + p);
        anti[p >> 6] &= ~BIT(p);
        anti[(L + p) >> 6] |= BIT(L + p);
        xor_row(t, n, W, p, anti);
        unit_row(t, n, p, L + site);
        return p;
    }
    for (int w = 0; w < W && q < 0; w++) /* lowest anticommuting logical row */
        for (u64 m = anti[w]; m && q < 0; m &= m - 1) {
            int r = 64 * w + __builtin_ctzll(m), j = r < L ? r : r - L;
            if (!((load(stab, j >> 6) >> (j & 63)) & 1))
                q = r;
        }
    if (q < 0) /* (a): deterministic, nothing changes */
        return -1;
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
    return L + pair;
}

/* Dephase at column col: channels._dephase_inplace. S_p, the lowest
 * stabilizer hit, goes into the other hit stabilizers, their destabilizers
 * into D_p. Returns p, whose mask bit the caller clears, or -1. */
int dephase(u64 *t, int L, const unsigned char *stab, int col)
{
    int n = 2 * L, W = (n + 63) / 64, S = (L + 63) / 64;
    if (col < 0 || col >= n)
        return -2;
    u64 others[W], partners[W];
    memset(others, 0, sizeof others);
    memset(partners, 0, sizeof partners);
    for (int w = 0; w < S; w++)
        others[w] = t[(size_t)w * n + col] & load(stab, w);
    int p = lowest(others, S);
    if (p < 0)
        return -1;
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

static int64_t site_at(const unsigned char *sites, int i)
{
    int64_t site;
    memcpy(&site, sites + 8 * (size_t)i, sizeof site);
    return site;
}

/* 1 when each of the count int64 sites lies in [0, L) */
static int sites_ok(const unsigned char *sites, int count, int L)
{
    for (int i = 0; i < count; i++)
        if (site_at(sites, i) < 0 || site_at(sites, i) >= L)
            return 0;
    return 1;
}

/* One gate per site pair (ci[g], cj[g]): channels._apply_tables_inplace.
 * maps holds m row-major 4x4 all-ones/zero masks on the columns
 * (x_i, z_i, x_j, z_j); ci and cj are int64. The pairs must be disjoint. */
int apply_gates(u64 *t, int L, const unsigned char *maps, const unsigned char *ci,
                const unsigned char *cj, int m)
{
    int n = 2 * L, W = (n + 63) / 64;
    if (!sites_ok(ci, m, L) || !sites_ok(cj, m, L))
        return -2;
    for (int g = 0; g < m; g++) {
        u64 map[16];
        int64_t i = site_at(ci, g), j = site_at(cj, g);
        memcpy(map, maps + sizeof map * (size_t)g, sizeof map);
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
    return 0;
}

/* GF(2) rank of count S-word vectors stored one after another in v, found
 * by elimination in place; stops once it reaches limit. Pivot j keeps a
 * zero at every earlier pivot's bit, so one pass in order reduces a vector. */
static int rank_vectors(u64 *v, int count, int S, int limit, int *pivot)
{
    int rank = 0;
    for (int i = 0; i < count && rank < limit; i++) {
        u64 *x = v + (size_t)i * S;
        for (int j = 0; j < rank; j++)
            if (has(x, pivot[j]))
                for (int w = 0; w < S; w++)
                    x[w] ^= v[(size_t)j * S + w];
        int b = lowest(x, S);
        if (b < 0)
            continue;
        memmove(v + (size_t)rank * S, x, sizeof *x * S);
        pivot[rank++] = b;
    }
    return rank;
}

/* Rank of the stabilizer rows on the X and Z columns of count sites (int64),
 * as entanglement.entropy needs it: each column is a vector over the rows,
 * masked to the stabilizers. Returns -1 when out of memory. */
int region_rank(const u64 *t, int L, const unsigned char *stab,
                const unsigned char *sites, int count)
{
    int n = 2 * L, S = (L + 63) / 64, k = 0;
    if (!sites_ok(sites, count, L))
        return -2;
    u64 mask[S];
    for (int w = 0; w < S; w++)
        k += __builtin_popcountll(mask[w] = load(stab, w));
    u64 *v = malloc(sizeof *v * S * (2 * (size_t)count + 1));
    int *pivot = malloc(sizeof *pivot * (2 * (size_t)count + 1));
    if (!v || !pivot) {
        free(v);
        free(pivot);
        return -1;
    }
    for (int i = 0; i < count; i++) {
        int64_t site = site_at(sites, i);
        for (int w = 0; w < S; w++) {
            v[(size_t)(2 * i) * S + w] = t[(size_t)w * n + site] & mask[w];
            v[(size_t)(2 * i + 1) * S + w] = t[(size_t)w * n + L + site] & mask[w];
        }
    }
    int rank = rank_vectors(v, 2 * count, S, k, pivot);
    free(v);
    free(pivot);
    return rank;
}

/* Rank of J = X_A Z_A^T + Z_A X_A^T over the stabilizer rows, where X_A and
 * Z_A are their bits on count sites (int64): entanglement.negativity's
 * rank. J is built column by column: column s adds X_c for each site c
 * with z_sc = 1 and Z_c for each c with x_sc = 1. Returns -1 when out of
 * memory. */
int negativity_rank(const u64 *t, int L, const unsigned char *stab,
                    const unsigned char *sites, int count)
{
    int n = 2 * L, S = (L + 63) / 64, k = 0;
    if (!sites_ok(sites, count, L))
        return -2;
    u64 mask[S], x[S], z[S];
    for (int w = 0; w < S; w++)
        mask[w] = load(stab, w);
    u64 *J = calloc((size_t)L * S, sizeof *J);
    int *pivot = malloc(sizeof *pivot * (size_t)L);
    if (!J || !pivot) {
        free(J);
        free(pivot);
        return -1;
    }
    for (int i = 0; i < count; i++) {
        int64_t site = site_at(sites, i);
        for (int w = 0; w < S; w++) {
            x[w] = t[(size_t)w * n + site] & mask[w];
            z[w] = t[(size_t)w * n + L + site] & mask[w];
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
        if (has(mask, r))
            memmove(J + (size_t)k++ * S, J + (size_t)r * S, sizeof *J * S);
    int rank = rank_vectors(J, k, S, k, pivot);
    free(J);
    free(pivot);
    return rank;
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
