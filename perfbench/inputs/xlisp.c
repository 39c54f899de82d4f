/*
 * xlisp -- a small Lisp interpreter, after the SPEC92 benchmark.  The
 * property the paper highlights: *all built-in functions are invoked
 * through function pointers* (a dispatch table), so the call graph is
 * dominated by the synthetic pointer node — yet the interpreter spends
 * its time in read/eval and a handful of builtins, which the Markov
 * model still identifies.
 *
 * Language: integers, symbols, lists; special forms quote, if, define,
 * lambda, begin, while, set!; builtins +, -, *, /, <, >, =, cons, car,
 * cdr, list, null?, not, print, length, mod.
 *
 * Input: a sequence of s-expressions, evaluated in order.
 */

#define MAX_OBJECTS 20000
#define MAX_TEXT    8192
#define NAME_LEN    12
#define MAX_BUILTINS 24

/* Object types. */
#define T_NIL     0
#define T_INT     1
#define T_SYMBOL  2
#define T_CONS    3
#define T_BUILTIN 4
#define T_LAMBDA  5

int obj_type[MAX_OBJECTS];
long obj_int[MAX_OBJECTS];
int obj_car[MAX_OBJECTS];
int obj_cdr[MAX_OBJECTS];
char obj_name[MAX_OBJECTS][NAME_LEN];
int object_count;

int nil_object;
int true_symbol;
int global_env; /* assoc list: ((sym . value) ...) */

char text[MAX_TEXT];
int text_len;
int cursor;

long eval_count;
long apply_count;

/* The builtin dispatch table: every builtin call goes through here. */
int (*builtin_table[MAX_BUILTINS])(int);
char builtin_names[MAX_BUILTINS][NAME_LEN];
int builtin_count;

void die(char *msg)
{
    puts(msg);
    exit(1);
}

/* --------------------------------------------------------------- */
/* Object allocation.                                                */

int new_object(int type)
{
    if (object_count >= MAX_OBJECTS)
        die("out of objects");
    obj_type[object_count] = type;
    obj_int[object_count] = 0;
    obj_car[object_count] = nil_object;
    obj_cdr[object_count] = nil_object;
    object_count++;
    return object_count - 1;
}

int make_int(long value)
{
    int handle = new_object(T_INT);
    obj_int[handle] = value;
    return handle;
}

int make_cons(int car, int cdr)
{
    int handle = new_object(T_CONS);
    obj_car[handle] = car;
    obj_cdr[handle] = cdr;
    return handle;
}

int intern(char *name)
{
    int i;
    for (i = 0; i < object_count; i++)
        if (obj_type[i] == T_SYMBOL && strcmp(obj_name[i], name) == 0)
            return i;
    i = new_object(T_SYMBOL);
    strcpy(obj_name[i], name);
    return i;
}

/* --------------------------------------------------------------- */
/* Reader.                                                           */

void skip_space(void)
{
    for (;;) {
        while (cursor < text_len &&
               (text[cursor] == ' ' || text[cursor] == '\n' ||
                text[cursor] == '\t' || text[cursor] == '\r'))
            cursor++;
        if (cursor < text_len && text[cursor] == ';') {
            while (cursor < text_len && text[cursor] != '\n')
                cursor++;
        } else {
            return;
        }
    }
}

int read_expression(void);

int read_list(void)
{
    int head = nil_object;
    int tail = nil_object;
    for (;;) {
        int element;
        skip_space();
        if (cursor >= text_len)
            die("unterminated list");
        if (text[cursor] == ')') {
            cursor++;
            return head;
        }
        element = read_expression();
        {
            int cell = make_cons(element, nil_object);
            if (head == nil_object) {
                head = cell;
            } else {
                obj_cdr[tail] = cell;
            }
            tail = cell;
        }
    }
}

int read_expression(void)
{
    skip_space();
    if (cursor >= text_len)
        return -1;
    if (text[cursor] == '(') {
        cursor++;
        return read_list();
    }
    if (text[cursor] == '\'') {
        int quoted;
        cursor++;
        quoted = read_expression();
        return make_cons(intern("quote"),
                         make_cons(quoted, nil_object));
    }
    if (isdigit(text[cursor]) ||
        (text[cursor] == '-' && cursor + 1 < text_len &&
         isdigit(text[cursor + 1]))) {
        long value = 0;
        int sign = 1;
        if (text[cursor] == '-') {
            sign = -1;
            cursor++;
        }
        while (cursor < text_len && isdigit(text[cursor])) {
            value = value * 10 + (text[cursor] - '0');
            cursor++;
        }
        return make_int(sign * value);
    }
    {
        char name[NAME_LEN];
        int length = 0;
        while (cursor < text_len && text[cursor] != ' ' &&
               text[cursor] != '(' && text[cursor] != ')' &&
               text[cursor] != '\n' && text[cursor] != '\t' &&
               text[cursor] != '\r') {
            if (length < NAME_LEN - 1)
                name[length++] = text[cursor];
            cursor++;
        }
        name[length] = 0;
        if (length == 0)
            die("empty token");
        return intern(name);
    }
}

/* --------------------------------------------------------------- */
/* Environment (assoc lists).                                        */

int env_bind(int env, int symbol, int value)
{
    return make_cons(make_cons(symbol, value), env);
}

int env_lookup_cell(int env, int symbol)
{
    int probe = env;
    while (probe != nil_object) {
        if (obj_car[obj_car[probe]] == symbol)
            return obj_car[probe];
        probe = obj_cdr[probe];
    }
    return -1;
}

/* --------------------------------------------------------------- */
/* Builtins.  All invoked only via builtin_table.                    */

long int_value(int handle)
{
    if (obj_type[handle] != T_INT)
        die("expected integer");
    return obj_int[handle];
}

int bi_add(int args)
{
    long total = 0;
    while (args != nil_object) {
        total += int_value(obj_car[args]);
        args = obj_cdr[args];
    }
    return make_int(total);
}

int bi_sub(int args)
{
    long total;
    if (args == nil_object)
        die("- needs arguments");
    total = int_value(obj_car[args]);
    args = obj_cdr[args];
    if (args == nil_object)
        return make_int(-total);
    while (args != nil_object) {
        total -= int_value(obj_car[args]);
        args = obj_cdr[args];
    }
    return make_int(total);
}

int bi_mul(int args)
{
    long total = 1;
    while (args != nil_object) {
        total *= int_value(obj_car[args]);
        args = obj_cdr[args];
    }
    return make_int(total);
}

int bi_div(int args)
{
    long total, divisor;
    if (args == nil_object)
        die("/ needs arguments");
    total = int_value(obj_car[args]);
    args = obj_cdr[args];
    while (args != nil_object) {
        divisor = int_value(obj_car[args]);
        if (divisor == 0)
            die("division by zero");
        total /= divisor;
        args = obj_cdr[args];
    }
    return make_int(total);
}

int bi_mod(int args)
{
    long a, b;
    a = int_value(obj_car[args]);
    b = int_value(obj_car[obj_cdr[args]]);
    if (b == 0)
        die("mod by zero");
    return make_int(a % b);
}

int bi_less(int args)
{
    return int_value(obj_car[args]) <
           int_value(obj_car[obj_cdr[args]])
        ? true_symbol : nil_object;
}

int bi_greater(int args)
{
    return int_value(obj_car[args]) >
           int_value(obj_car[obj_cdr[args]])
        ? true_symbol : nil_object;
}

int bi_num_equal(int args)
{
    return int_value(obj_car[args]) ==
           int_value(obj_car[obj_cdr[args]])
        ? true_symbol : nil_object;
}

int bi_cons(int args)
{
    return make_cons(obj_car[args], obj_car[obj_cdr[args]]);
}

int bi_car(int args)
{
    int cell = obj_car[args];
    if (obj_type[cell] != T_CONS)
        die("car of non-cons");
    return obj_car[cell];
}

int bi_cdr(int args)
{
    int cell = obj_car[args];
    if (obj_type[cell] != T_CONS)
        die("cdr of non-cons");
    return obj_cdr[cell];
}

int bi_list(int args)
{
    return args;
}

int bi_null(int args)
{
    return obj_car[args] == nil_object ? true_symbol : nil_object;
}

int bi_not(int args)
{
    return obj_car[args] == nil_object ? true_symbol : nil_object;
}

int bi_length(int args)
{
    long count = 0;
    int probe = obj_car[args];
    while (probe != nil_object && obj_type[probe] == T_CONS) {
        count++;
        probe = obj_cdr[probe];
    }
    return make_int(count);
}

void print_object(int handle);

int bi_print(int args)
{
    int last = nil_object;
    while (args != nil_object) {
        print_object(obj_car[args]);
        last = obj_car[args];
        args = obj_cdr[args];
    }
    printf("\n");
    return last;
}

void register_builtin(char *name, int (*function)(int))
{
    int symbol, handle;
    if (builtin_count >= MAX_BUILTINS)
        die("too many builtins");
    strcpy(builtin_names[builtin_count], name);
    builtin_table[builtin_count] = function;
    handle = new_object(T_BUILTIN);
    obj_int[handle] = builtin_count;
    symbol = intern(name);
    global_env = env_bind(global_env, symbol, handle);
    builtin_count++;
}

void install_builtins(void)
{
    register_builtin("+", bi_add);
    register_builtin("-", bi_sub);
    register_builtin("*", bi_mul);
    register_builtin("/", bi_div);
    register_builtin("mod", bi_mod);
    register_builtin("<", bi_less);
    register_builtin(">", bi_greater);
    register_builtin("=", bi_num_equal);
    register_builtin("cons", bi_cons);
    register_builtin("car", bi_car);
    register_builtin("cdr", bi_cdr);
    register_builtin("list", bi_list);
    register_builtin("null?", bi_null);
    register_builtin("not", bi_not);
    register_builtin("length", bi_length);
    register_builtin("print", bi_print);
}

/* --------------------------------------------------------------- */
/* Printer.                                                          */

void print_object(int handle)
{
    int type = obj_type[handle];
    if (type == T_NIL) {
        printf("()");
    } else if (type == T_INT) {
        printf("%ld", obj_int[handle]);
    } else if (type == T_SYMBOL) {
        printf("%s", obj_name[handle]);
    } else if (type == T_BUILTIN) {
        printf("#<builtin:%s>", builtin_names[obj_int[handle]]);
    } else if (type == T_LAMBDA) {
        printf("#<lambda>");
    } else {
        int probe = handle;
        printf("(");
        while (probe != nil_object) {
            print_object(obj_car[probe]);
            probe = obj_cdr[probe];
            if (probe != nil_object) {
                printf(" ");
                if (obj_type[probe] != T_CONS) {
                    printf(". ");
                    print_object(probe);
                    break;
                }
            }
        }
        printf(")");
    }
}

/* --------------------------------------------------------------- */
/* Evaluator.                                                        */

int eval(int expr, int env);

int eval_list(int list, int env)
{
    int head = nil_object;
    int tail = nil_object;
    while (list != nil_object) {
        int value = eval(obj_car[list], env);
        int cell = make_cons(value, nil_object);
        if (head == nil_object)
            head = cell;
        else
            obj_cdr[tail] = cell;
        tail = cell;
        list = obj_cdr[list];
    }
    return head;
}

int apply(int function, int args)
{
    apply_count++;
    if (obj_type[function] == T_BUILTIN) {
        /* The indirect call the paper's pointer node models. */
        return (*builtin_table[obj_int[function]])(args);
    }
    if (obj_type[function] == T_LAMBDA) {
        int params = obj_car[obj_car[function]];
        int body = obj_cdr[obj_car[function]];
        int env = obj_cdr[function];
        int result = nil_object;
        while (params != nil_object) {
            if (args == nil_object)
                die("too few arguments");
            env = env_bind(env, obj_car[params], obj_car[args]);
            params = obj_cdr[params];
            args = obj_cdr[args];
        }
        while (body != nil_object) {
            result = eval(obj_car[body], env);
            body = obj_cdr[body];
        }
        return result;
    }
    die("apply of non-function");
    return nil_object;
}

int eval(int expr, int env)
{
    int type;
    eval_count++;
    type = obj_type[expr];
    if (type == T_INT || type == T_NIL || type == T_BUILTIN ||
        type == T_LAMBDA)
        return expr;
    if (type == T_SYMBOL) {
        int cell = env_lookup_cell(env, expr);
        if (cell < 0)
            cell = env_lookup_cell(global_env, expr);
        if (cell < 0) {
            printf("unbound symbol: %s\n", obj_name[expr]);
            exit(1);
        }
        return obj_cdr[cell];
    }
    /* A form.  Check the special forms first. */
    {
        int head = obj_car[expr];
        int rest = obj_cdr[expr];
        if (obj_type[head] == T_SYMBOL) {
            char *name = obj_name[head];
            if (strcmp(name, "quote") == 0)
                return obj_car[rest];
            if (strcmp(name, "if") == 0) {
                int test = eval(obj_car[rest], env);
                if (test != nil_object)
                    return eval(obj_car[obj_cdr[rest]], env);
                if (obj_cdr[obj_cdr[rest]] != nil_object)
                    return eval(obj_car[obj_cdr[obj_cdr[rest]]], env);
                return nil_object;
            }
            if (strcmp(name, "define") == 0) {
                int symbol = obj_car[rest];
                int value = eval(obj_car[obj_cdr[rest]], env);
                global_env = env_bind(global_env, symbol, value);
                return symbol;
            }
            if (strcmp(name, "set!") == 0) {
                int symbol = obj_car[rest];
                int cell = env_lookup_cell(env, symbol);
                int value = eval(obj_car[obj_cdr[rest]], env);
                if (cell < 0)
                    die("set! of unbound symbol");
                obj_cdr[cell] = value;
                return value;
            }
            if (strcmp(name, "lambda") == 0) {
                int handle = new_object(T_LAMBDA);
                obj_car[handle] = rest; /* (params . body) */
                obj_cdr[handle] = env;
                return handle;
            }
            if (strcmp(name, "begin") == 0) {
                int result = nil_object;
                while (rest != nil_object) {
                    result = eval(obj_car[rest], env);
                    rest = obj_cdr[rest];
                }
                return result;
            }
            if (strcmp(name, "while") == 0) {
                int result = nil_object;
                while (eval(obj_car[rest], env) != nil_object) {
                    int body = obj_cdr[rest];
                    while (body != nil_object) {
                        result = eval(obj_car[body], env);
                        body = obj_cdr[body];
                    }
                }
                return result;
            }
        }
        /* Ordinary application. */
        {
            int function = eval(head, env);
            int args = eval_list(rest, env);
            return apply(function, args);
        }
    }
}

/* --------------------------------------------------------------- */

void read_text(void)
{
    int c;
    text_len = 0;
    while ((c = getchar()) != -1) {
        if (text_len >= MAX_TEXT - 1)
            die("program too long");
        text[text_len++] = (char)c;
    }
    text[text_len] = 0;
}

int main(void)
{
    nil_object = new_object(T_NIL);
    global_env = nil_object;
    true_symbol = intern("t");
    global_env = env_bind(global_env, true_symbol, true_symbol);
    install_builtins();
    read_text();
    cursor = 0;
    for (;;) {
        int expr = read_expression();
        if (expr < 0)
            break;
        eval(expr, global_env);
    }
    printf("evals=%ld applies=%ld objects=%d\n",
           eval_count, apply_count, object_count);
    return 0;
}
