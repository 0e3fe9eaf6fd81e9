/* Compiled sweep kernel for counting fixed row/column-sum matrices.
 *
 * Same contract as lambdakit/_kernel_py.py, which stays the fallback when
 * this extension is not built: row-by-row backtracking over the remaining
 * column capacities.  A column whose capacity equals the number of
 * unfilled rows is forced into every later row, so the last row is always
 * forced and each node one row above the bottom completes to exactly one
 * matrix.  Each row's free columns are chosen in the order of
 * itertools.combinations, which fixes the enumeration order.
 *
 * One search engine serves every entry point: next_leaf() walks an
 * explicit per-row stack to the next complete matrix, and the counting
 * sweeps, the k = 3 corner census and the row-mask iterator all consume
 * its leaves.  The closed sweeps release the interpreter lock.  Counts are
 * accumulated in 64-bit integers; the sweeps are infeasible long before
 * they could overflow.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAXN 64
#define BIT(j) ((uint64_t)1 << (j))

typedef struct {
    int nforced, nfree, need;     /* need: how many free columns to pick */
    signed char forced[MAXN];     /* columns that must take a 1 in this row */
    signed char free[MAXN];       /* other columns with capacity, ascending */
    signed char idx[MAXN];        /* current pick: ascending indices into free */
} Row;

typedef struct {
    int n, k, corner_only;
    int depth;                /* rows [0, depth) hold their current pick */
    int descend;              /* 1: open row `depth` next; 0: backtrack */
    int caps[MAXN];           /* ones each column still needs */
    uint64_t masks[MAXN];     /* row masks; the last one is set by consumers */
    Row rows[MAXN];
} Sweep;

static int
sweep_init(Sweep *s, int n, int k, int corner_only)
{
    if (n < 1 || n > MAXN) {
        PyErr_Format(PyExc_ValueError,
                     "sweep kernel supports 1 <= n <= %d, got %d", MAXN, n);
        return -1;
    }
    if (k < 0) {
        PyErr_Format(PyExc_ValueError, "k must be nonnegative, got %d", k);
        return -1;
    }
    s->n = n;
    s->k = k;
    s->corner_only = corner_only;
    s->depth = 0;
    s->descend = k <= n;      /* k > n: the set is empty */
    for (int j = 0; j < n; j++)
        s->caps[j] = k;
    return 0;
}

/* Give back (delta = 1) or take (delta = -1) one unit of capacity from
 * the picked free columns idx[from..need-1] of row r. */
static void
shift_picks(Sweep *s, int r, int from, int delta)
{
    Row *row = &s->rows[r];
    uint64_t mask = s->masks[r];
    for (int i = from; i < row->need; i++) {
        int j = row->free[row->idx[i]];
        s->caps[j] += delta;
        mask ^= BIT(j);
    }
    s->masks[r] = mask;
}

/* Split the columns of row r into forced and free and apply the first pick.
 * Returns 0, with the capacities untouched, when no pick can succeed. */
static int
open_row(Sweep *s, int r)
{
    Row *row = &s->rows[r];
    int n = s->n, rem = n - r;
    uint64_t mask = 0;

    if (s->corner_only && s->caps[n - 1] == 0)
        return 0;
    row->nforced = row->nfree = 0;
    for (int j = 0; j < n; j++) {
        int c = s->caps[j];
        if (c == rem)
            row->forced[row->nforced++] = (signed char)j;
        else if (c)
            row->free[row->nfree++] = (signed char)j;
    }
    row->need = s->k - row->nforced;
    if (row->need < 0 || row->nfree < row->need)
        return 0;
    for (int i = 0; i < row->nforced; i++) {
        s->caps[row->forced[i]]--;
        mask |= BIT(row->forced[i]);
    }
    for (int i = 0; i < row->need; i++)
        row->idx[i] = (signed char)i;
    s->masks[r] = mask;
    shift_picks(s, r, 0, -1);
    return 1;
}

/* Move row r to its next pick, in itertools.combinations order.  Returns
 * 0, with every capacity the row took restored, when no pick is left. */
static int
next_pick(Sweep *s, int r)
{
    Row *row = &s->rows[r];
    int need = row->need, i = need - 1;

    while (i >= 0 && row->idx[i] == row->nfree - need + i)
        i--;
    if (i < 0) {
        shift_picks(s, r, 0, 1);
        for (i = 0; i < row->nforced; i++)
            s->caps[row->forced[i]]++;
        return 0;
    }
    shift_picks(s, r, i, 1);
    row->idx[i]++;
    for (int m = i + 1; m < need; m++)
        row->idx[m] = (signed char)(row->idx[m - 1] + 1);
    shift_picks(s, r, i, -1);
    return 1;
}

/* Advance to the next complete matrix.  Returns 1 with rows 0..n-2 in
 * s->masks and the forced last row left in s->caps (all 0 or 1), or 0
 * once the sweep is exhausted. */
static int
next_leaf(Sweep *s)
{
    int last = s->n - 1, r = s->depth, descend = s->descend;

    for (;;) {
        if (descend) {
            if (r < last) {
                if (open_row(s, r)) {
                    r++;
                    continue;
                }
            }
            else if (!s->corner_only || s->caps[last]) {
                s->depth = r;
                s->descend = 0;
                return 1;
            }
        }
        if (r == 0) {
            s->depth = 0;
            s->descend = 0;
            return 0;
        }
        r--;
        descend = next_pick(s, r);
        if (descend)
            r++;
    }
}

static uint64_t
last_row_mask(const Sweep *s)
{
    uint64_t mask = 0;
    for (int j = 0; j < s->n; j++)
        if (s->caps[j])
            mask |= BIT(j);
    return mask;
}

/* 2x2 pattern at the two rows s < t meeting the last column and the two
 * columns p < q meeting the last row (k = 3, corner 1):
 * top-left<<3 | top-right<<2 | bottom-left<<1 | bottom-right. */
static int
corner_pattern(const uint64_t *masks, int n)
{
    uint64_t corner = BIT(n - 1), last = masks[n - 1];
    int rows[2], cols[2], nr = 0, nc = 0;

    for (int i = 0; i < n - 1 && nr < 2; i++)
        if (masks[i] & corner)
            rows[nr++] = i;
    for (int j = 0; j < n - 1 && nc < 2; j++)
        if (last & BIT(j))
            cols[nc++] = j;
    uint64_t rs = masks[rows[0]], rt = masks[rows[1]];
    return (int)((rs >> cols[0] & 1) << 3 | (rs >> cols[1] & 1) << 2
                 | (rt >> cols[0] & 1) << 1 | (rt >> cols[1] & 1));
}

/* Run the sweep to the end with the interpreter lock released, tallying
 * each matrix by its corner entry (acc[0] corner 1, acc[1] corner 0) or,
 * for the census, by its corner pattern.  Pending signals are handled
 * every 2^20 matrices, so Ctrl-C stops a long sweep; returns -1 with the
 * handler's exception set when it raised. */
static int
tally(Sweep *s, int census, unsigned long long *acc)
{
    int last = s->n - 1, rc = 0;
    unsigned long ticks = 0;

    Py_BEGIN_ALLOW_THREADS
    while (next_leaf(s)) {
        if (census) {
            s->masks[last] = last_row_mask(s);
            acc[corner_pattern(s->masks, s->n)]++;
        }
        else
            acc[s->caps[last] ? 0 : 1]++;
        if (++ticks % (1UL << 20) == 0) {
            Py_BLOCK_THREADS
            rc = PyErr_CheckSignals();
            Py_UNBLOCK_THREADS
            if (rc < 0)
                break;
        }
    }
    Py_END_ALLOW_THREADS
    return rc;
}

static char *KW_N[] = {"n", NULL};
static char *KW_NK[] = {"n", "k", NULL};

static PyObject *
count_all(PyObject *self, PyObject *args, PyObject *kwargs)
{
    int n, k;
    Sweep s;
    unsigned long long acc[2] = {0, 0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ii:count_all", KW_NK, &n, &k)
        || sweep_init(&s, n, k, 0) < 0 || tally(&s, 0, acc) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(acc[0] + acc[1]);
}

static PyObject *
count_split(PyObject *self, PyObject *args, PyObject *kwargs)
{
    int n, k;
    Sweep s;
    unsigned long long acc[2] = {0, 0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ii:count_split", KW_NK, &n, &k)
        || sweep_init(&s, n, k, 0) < 0 || tally(&s, 0, acc) < 0)
        return NULL;
    return Py_BuildValue("(KK)", acc[0], acc[1]);
}

static PyObject *
corner_census3(PyObject *self, PyObject *args, PyObject *kwargs)
{
    int n;
    Sweep s;
    unsigned long long acc[16] = {0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "i:corner_census3", KW_N, &n)
        || sweep_init(&s, n, 3, 1) < 0 || tally(&s, 1, acc) < 0)
        return NULL;
    return Py_BuildValue("[KKKKKKKKKKKKKKKK]", acc[0], acc[1], acc[2], acc[3], acc[4],
                         acc[5], acc[6], acc[7], acc[8], acc[9], acc[10], acc[11],
                         acc[12], acc[13], acc[14], acc[15]);
}

/* Iterator over the matrices as tuples of row masks, in sweep order. */
typedef struct {
    PyObject_HEAD
    Sweep s;
} RowMaskIter;

static PyObject *
rowmaskiter_next(RowMaskIter *it)
{
    Sweep *s = &it->s;

    if (!next_leaf(s))
        return NULL;
    s->masks[s->n - 1] = last_row_mask(s);
    PyObject *tuple = PyTuple_New(s->n);
    for (int i = 0; tuple && i < s->n; i++) {
        PyObject *v = PyLong_FromUnsignedLongLong(s->masks[i]);
        if (!v) {
            Py_CLEAR(tuple);
            break;
        }
        PyTuple_SET_ITEM(tuple, i, v);
    }
    return tuple;
}

static PyTypeObject RowMaskIterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "lambdakit._speedups.RowMaskIterator",
    .tp_basicsize = sizeof(RowMaskIter),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Row-mask tuples of every matrix, in enumeration order.",
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)rowmaskiter_next,
};

static PyObject *
iter_row_masks(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "k", "corner_only", NULL};
    int n, k, corner_only = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ii|p:iter_row_masks", kwlist,
                                     &n, &k, &corner_only))
        return NULL;
    RowMaskIter *it = PyObject_New(RowMaskIter, &RowMaskIterType);
    if (it && sweep_init(&it->s, n, k, corner_only) < 0)
        Py_CLEAR(it);
    return (PyObject *)it;
}

static PyMethodDef methods[] = {
    {"count_all", (PyCFunction)(void (*)(void))count_all, METH_VARARGS | METH_KEYWORDS,
     "count_all(n, k)\n--\n\n"
     "Number of n x n 0-1 matrices with exactly k ones per row and column."},
    {"count_split", (PyCFunction)(void (*)(void))count_split, METH_VARARGS | METH_KEYWORDS,
     "count_split(n, k)\n--\n\n"
     "(plus, minus): the count split by bottom-right entry 1 / 0."},
    {"corner_census3", (PyCFunction)(void (*)(void))corner_census3,
     METH_VARARGS | METH_KEYWORDS,
     "corner_census3(n)\n--\n\n"
     "Tally of the sixteen 2x2 corner-submatrix bit patterns over all k = 3\n"
     "matrices with a 1 in the bottom-right corner.\n\n"
     "Index = top-left<<3 | top-right<<2 | bottom-left<<1 | bottom-right."},
    {"iter_row_masks", (PyCFunction)(void (*)(void))iter_row_masks,
     METH_VARARGS | METH_KEYWORDS,
     "iter_row_masks(n, k, corner_only=False)\n--\n\n"
     "Iterate over each matrix as a tuple of row masks, in enumeration order.\n"
     "With corner_only only matrices whose bottom-right entry is 1 are produced."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "lambdakit._speedups",
    .m_doc = "Compiled sweep kernel; same contract as lambdakit._kernel_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    if (PyType_Ready(&RowMaskIterType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
