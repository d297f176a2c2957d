/* Compiled outward-rounded interval kernels.
 *
 * Each product or quotient bound comes from the one corner that the operand
 * signs select, rounded one way by the sign of its exact error term.  A
 * kernel-for-kernel mirror of _pure.py, which documents the method; keep
 * the two in sync, refusals included: the KERNEL wrapper raises
 * ZeroDivisionError for a kdiv divisor containing 0, and NumericError for
 * an unordered divisor or result.  The fused kernels kdot (a sum of pair
 * products) and khorner (a Horner evaluation of pair vectors) take
 * sequences of (lo, hi) pairs and run the kmul and kadd below term by
 * term, with the same refusals, at the first product or partial sum that
 * is not an ordered pair.  Plain CPython C API, built by setup.py as an
 * optional extension (or by hand: gcc -O3 -shared -fPIC
 * -I<python include>).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Dekker's split and the division residual need every product rounded on
 * its own; a fused multiply-add would change their results.  The pragma
 * covers every function below it. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

static const double SPLIT = 134217729.0; /* 2**27 + 1, Veltkamp split */
static const double BIG = 1e290;
static const double TINY = 1e-290;

static double down(double x) { return nextafter(x, -INFINITY); }
static double up(double x) { return nextafter(x, INFINITY); }

static void kadd(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    *lo = al + bl;
    if (*lo - al != bl || *lo - bl != al) *lo = down(*lo);
    *hi = ah + bh;
    if (*hi - ah != bh || *hi - bh != ah) *hi = up(*hi);
}

static void ksub(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    *lo = al - bh;
    if (*lo + bh != al || al - *lo != bh) *lo = down(*lo);
    *hi = ah - bl;
    if (*hi + bl != ah || ah - *hi != bl) *hi = up(*hi);
}

/* Error term x*y - p of the product x*y rounded to p (NaN if the split
 * overflows). */
static double prod_err(double x, double y, double p)
{
    double xh = x * SPLIT, yh = y * SPLIT, xl, yl;
    xh = xh - (xh - x);
    xl = x - xh;
    yh = yh - (yh - y);
    yl = y - yh;
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl;
}

static double prod_down(double x, double y)
{
    double p = x * y, ap = fabs(p);
    if (ap > BIG || (ap < TINY && x != 0.0 && y != 0.0)) return down(p); /* see _pure */
    return prod_err(x, y, p) >= 0.0 ? p : down(p); /* NaN: the split overflowed */
}

static double prod_up(double x, double y)
{
    double p = x * y, ap = fabs(p);
    if (ap > BIG || (ap < TINY && x != 0.0 && y != 0.0)) return up(p);
    return prod_err(x, y, p) <= 0.0 ? p : up(p);
}

/* Sign-selected corners; a min or max compares in the order of min()/max(). */
static void kmul(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    if ((al == 0.0 && ah == 0.0) || (bl == 0.0 && bh == 0.0)) { *lo = 0.0; *hi = 0.0; }
    else if (al == 1.0 && ah == 1.0) { *lo = bl; *hi = bh; }
    else if (bl == 1.0 && bh == 1.0) { *lo = al; *hi = ah; }
    else if (al >= 0.0) {
        if (bl >= 0.0) { *lo = prod_down(al, bl); *hi = prod_up(ah, bh); }
        else if (bh <= 0.0) { *lo = prod_down(ah, bl); *hi = prod_up(al, bh); }
        else { *lo = prod_down(ah, bl); *hi = prod_up(ah, bh); }
    }
    else if (ah <= 0.0) {
        if (bl >= 0.0) { *lo = prod_down(al, bh); *hi = prod_up(ah, bl); }
        else if (bh <= 0.0) { *lo = prod_down(ah, bh); *hi = prod_up(al, bl); }
        else { *lo = prod_down(al, bh); *hi = prod_up(al, bl); }
    }
    else if (bl >= 0.0) { *lo = prod_down(al, bh); *hi = prod_up(ah, bh); }
    else if (bh <= 0.0) { *lo = prod_down(ah, bl); *hi = prod_up(al, bl); }
    else {
        double d = prod_down(ah, bl), u = prod_up(ah, bh);
        *lo = prod_down(al, bh);
        *hi = prod_up(al, bl);
        if (d < *lo) *lo = d;
        if (u > *hi) *hi = u;
    }
}

/* Residual a - q*b of the quotient a/b rounded to q, exact (NaN if the split
 * or the error term may overflow or underflow). */
static double quot_rem(double a, double b, double q)
{
    double aq = fabs(q), aa = fabs(a), p;
    if (aq > BIG || (aq < TINY && q != 0.0) || aa > BIG || (aa > 0.0 && aa < TINY)) return NAN;
    p = q * b;
    return (a - p) - prod_err(q, b, p);
}

static double quot_down(double a, double b)
{
    double q = a / b, rem = quot_rem(a, b, q);
    return rem == 0.0 || (rem == rem && (rem > 0.0) == (b > 0.0)) ? q : down(q);
}

static double quot_up(double a, double b)
{
    double q = a / b, rem = quot_rem(a, b, q);
    return rem == 0.0 || (rem == rem && (rem > 0.0) != (b > 0.0)) ? q : up(q);
}

static void kdiv(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    /* py_kdiv has refused a divisor that contains 0 or is unordered */
    if (bl == 1.0 && bh == 1.0) { *lo = al; *hi = ah; }
    else if (bl > 0.0) {
        if (al >= 0.0) { *lo = quot_down(al, bh); *hi = quot_up(ah, bl); }
        else if (ah <= 0.0) { *lo = quot_down(al, bl); *hi = quot_up(ah, bh); }
        else { *lo = quot_down(al, bl); *hi = quot_up(ah, bl); }
    }
    else if (al >= 0.0) { *lo = quot_down(ah, bh); *hi = quot_up(al, bl); }
    else if (ah <= 0.0) { *lo = quot_down(ah, bl); *hi = quot_up(al, bh); }
    else { *lo = quot_down(ah, bh); *hi = quot_up(al, bh); }
}

static double as_double(PyObject *o)
{
    return PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
}

static PyObject *pair(double lo, double hi)
{
    PyObject *t = PyTuple_New(2), *a = PyFloat_FromDouble(lo), *b = PyFloat_FromDouble(hi);
    if (t == NULL || a == NULL || b == NULL) {
        Py_XDECREF(t);
        Py_XDECREF(a);
        Py_XDECREF(b);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, a);
    PyTuple_SET_ITEM(t, 1, b);
    return t;
}

static PyObject *NumericError; /* stlmon.errors.NumericError */

#define KERNEL(name, divides)                                                          \
    static PyObject *py_##name(PyObject *mod, PyObject *const *args, Py_ssize_t nargs) \
    {                                                                                  \
        double v[4], lo, hi;                                                           \
        if (nargs != 4)                                                                \
            return PyErr_Format(PyExc_TypeError,                                       \
                                #name "() takes 4 arguments (%zd given)", nargs);      \
        for (int i = 0; i < 4; i++)                                                    \
            if ((v[i] = as_double(args[i])) == -1.0 && PyErr_Occurred()) return NULL;  \
        if (divides && v[2] <= 0.0 && 0.0 <= v[3])                                     \
            return PyErr_Format(PyExc_ZeroDivisionError,                               \
                "division by zero-containing interval [%R, %R]", args[2], args[3]);    \
        if (divides && !(v[2] <= v[3]))                                                \
            return PyErr_Format(NumericError,                                          \
                "divisor (%R, %R) is not an ordered pair", args[2], args[3]);          \
        name(v[0], v[1], v[2], v[3], &lo, &hi);                                        \
        PyObject *t = pair(lo, hi);                                                    \
        if (t != NULL && !(lo <= hi)) {                                                \
            PyErr_Format(NumericError, "kernel result %R is not an ordered pair", t);  \
            Py_CLEAR(t);                                                               \
        }                                                                              \
        return t;                                                                      \
    }

KERNEL(kadd, 0)
KERNEL(ksub, 0)
KERNEL(kmul, 0)
KERNEL(kdiv, 1)

/* NumericError for a kernel result that is not an ordered pair */
static int refused(double lo, double hi)
{
    PyObject *t;
    if (lo <= hi) return 0;
    if ((t = pair(lo, hi)) != NULL) {
        PyErr_Format(NumericError, "kernel result %R is not an ordered pair", t);
        Py_DECREF(t);
    }
    return -1;
}

/* The bounds of a (lo, hi) pair: a sequence of two numbers */
static int as_pair(PyObject *o, double *lo, double *hi)
{
    PyObject *seq = PySequence_Fast(o, "a kernel operand must be a (lo, hi) pair"), **v;
    int ok;
    if (seq == NULL) return -1;
    if (PySequence_Fast_GET_SIZE(seq) != 2) {
        PyErr_Format(PyExc_ValueError, "a kernel operand must be a (lo, hi) pair, not %zd values",
                     PySequence_Fast_GET_SIZE(seq));
        Py_DECREF(seq);
        return -1;
    }
    v = PySequence_Fast_ITEMS(seq);
    ok = !((*lo = as_double(v[0])) == -1.0 && PyErr_Occurred())
         && !((*hi = as_double(v[1])) == -1.0 && PyErr_Occurred());
    Py_DECREF(seq);
    return ok ? 0 : -1;
}

/* kdot(row, col): row[0]*col[0] + row[1]*col[1] + ..., summed left to
 * right; (0.0, 0.0) for no terms */
static PyObject *py_kdot(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *row = NULL, *col = NULL, *out = NULL;
    double lo = 0.0, hi = 0.0, al, ah, bl, bh, pl, ph;
    Py_ssize_t n, i;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "kdot() takes 2 arguments (%zd given)", nargs);
    if ((row = PySequence_Fast(args[0], "kdot() takes sequences of pairs")) == NULL
        || (col = PySequence_Fast(args[1], "kdot() takes sequences of pairs")) == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(row);
    if (n != PySequence_Fast_GET_SIZE(col)) {
        PyErr_Format(PyExc_ValueError, "kdot of %zd by %zd terms", n, PySequence_Fast_GET_SIZE(col));
        goto done;
    }
    for (i = 0; i < n; i++) {
        if (as_pair(PySequence_Fast_GET_ITEM(row, i), &al, &ah) < 0
            || as_pair(PySequence_Fast_GET_ITEM(col, i), &bl, &bh) < 0)
            goto done;
        kmul(al, ah, bl, bh, &pl, &ph);
        if (refused(pl, ph)) goto done;
        if (i == 0) { lo = pl; hi = ph; continue; }
        kadd(lo, hi, pl, ph, &lo, &hi);
        if (refused(lo, hi)) goto done;
    }
    out = pair(lo, hi);
done:
    Py_XDECREF(row);
    Py_XDECREF(col);
    return out;
}

/* khorner(cols, s): sum_i cols[i] s^i in Horner's form, componentwise,
 * one component at a time: from the highest order down, each step is the
 * kmul by s and then the kadd of the next lower order's term */
static PyObject *py_khorner(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *cols = NULL, **seqs = NULL, *out = NULL, *t;
    double sl, sh, lo, hi, cl, ch, pl, ph;
    Py_ssize_t m = 0, n, i, j;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "khorner() takes 2 arguments (%zd given)", nargs);
    if ((cols = PySequence_Fast(args[0], "khorner() takes a sequence of columns")) == NULL)
        return NULL;
    if ((m = PySequence_Fast_GET_SIZE(cols)) == 0) {
        PyErr_SetString(PyExc_ValueError, "khorner of no columns");
        goto done;
    }
    if (as_pair(args[1], &sl, &sh) < 0 || (seqs = PyMem_New(PyObject *, m)) == NULL) {
        if (seqs == NULL && !PyErr_Occurred()) PyErr_NoMemory();
        m = 0;
        goto done;
    }
    for (i = 0; i < m; i++) seqs[i] = NULL;
    for (i = 0; i < m; i++)
        if ((seqs[i] = PySequence_Fast(PySequence_Fast_GET_ITEM(cols, i),
                                       "khorner() takes columns of pairs")) == NULL)
            goto done;
    n = PySequence_Fast_GET_SIZE(seqs[0]);
    for (i = 1; i < m; i++)
        if (PySequence_Fast_GET_SIZE(seqs[i]) != n) {
            PyErr_SetString(PyExc_ValueError, "khorner columns of unequal lengths");
            goto done;
        }
    if ((out = PyList_New(n)) == NULL) goto done;
    for (j = 0; j < n; j++) {
        if (as_pair(PySequence_Fast_GET_ITEM(seqs[m - 1], j), &lo, &hi) < 0) goto fail;
        for (i = m - 2; i >= 0; i--) {
            if (as_pair(PySequence_Fast_GET_ITEM(seqs[i], j), &cl, &ch) < 0) goto fail;
            kmul(lo, hi, sl, sh, &pl, &ph);
            if (refused(pl, ph)) goto fail;
            kadd(pl, ph, cl, ch, &lo, &hi);
            if (refused(lo, hi)) goto fail;
        }
        if ((t = pair(lo, hi)) == NULL) goto fail;
        PyList_SET_ITEM(out, j, t);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    for (i = 0; seqs != NULL && i < m; i++) Py_XDECREF(seqs[i]);
    PyMem_Free(seqs);
    Py_DECREF(cols);
    return out;
}

#define FASTCALL(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    FASTCALL(kadd),
    FASTCALL(ksub),
    FASTCALL(kmul),
    FASTCALL(kdiv),
    FASTCALL(kdot),
    FASTCALL(khorner),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fast", "Compiled outward-rounded interval kernels.", -1, methods,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    PyObject *errors = PyImport_ImportModule("stlmon.errors"), *m = NULL;
    if (errors == NULL) return NULL;
    Py_XSETREF(NumericError, PyObject_GetAttrString(errors, "NumericError"));
    Py_DECREF(errors);
    if (NumericError != NULL) m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0) Py_CLEAR(m);
    return m;
}
