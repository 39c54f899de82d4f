/*
 * eqntott -- translate boolean equations into truth tables, after the
 * SPEC92 benchmark.  Reads equations like
 *
 *     f = a & (b | !c);
 *     g = (a ^ b) & !(c & a);
 *
 * (operators ! & | ^ and parentheses; variables are single lowercase
 * letters; one equation per ';'), enumerates all assignments to the
 * variables used, prints the truth table, and reports the minterm
 * count of every output.
 *
 * Symbolic category: recursive-descent parsing plus an evaluation
 * inner loop full of data-dependent branches.
 */

#define MAX_TEXT   4096
#define MAX_NODES  512
#define MAX_VARS   12
#define MAX_OUTPUTS 16

/* Expression tree nodes. */
#define OP_VAR 0
#define OP_NOT 1
#define OP_AND 2
#define OP_OR  3
#define OP_XOR 4

int node_op[MAX_NODES];
int node_left[MAX_NODES];
int node_right[MAX_NODES];
int node_var[MAX_NODES];
int node_count;

char text[MAX_TEXT];
int text_len;
int cursor;

int var_used[26];
int var_index[26];
int var_count;

int output_root[MAX_OUTPUTS];
char output_name[MAX_OUTPUTS];
int output_count;
int minterms[MAX_OUTPUTS];

void syntax_error(char *msg)
{
    printf("syntax error at %d: %s\n", cursor, msg);
    exit(1);
}

void read_text(void)
{
    int c;
    text_len = 0;
    while ((c = getchar()) != -1) {
        if (text_len >= MAX_TEXT - 1)
            syntax_error("input too long");
        text[text_len++] = (char)c;
    }
    text[text_len] = 0;
}

void skip_spaces(void)
{
    while (cursor < text_len &&
           (text[cursor] == ' ' || text[cursor] == '\n' ||
            text[cursor] == '\t' || text[cursor] == '\r'))
        cursor++;
}

int peek(void)
{
    skip_spaces();
    if (cursor >= text_len)
        return -1;
    return text[cursor];
}

int new_node(int op, int left, int right, int var)
{
    if (node_count >= MAX_NODES)
        syntax_error("expression too large");
    node_op[node_count] = op;
    node_left[node_count] = left;
    node_right[node_count] = right;
    node_var[node_count] = var;
    node_count++;
    return node_count - 1;
}

int register_variable(int letter)
{
    int slot = letter - 'a';
    if (!var_used[slot]) {
        var_used[slot] = 1;
        var_index[slot] = var_count;
        var_count++;
        if (var_count > MAX_VARS)
            syntax_error("too many variables");
    }
    return var_index[slot];
}

int parse_or(void);

int parse_atom(void)
{
    int c = peek();
    if (c == '(') {
        int inner;
        cursor++;
        inner = parse_or();
        if (peek() != ')')
            syntax_error("expected )");
        cursor++;
        return inner;
    }
    if (c == '!') {
        cursor++;
        return new_node(OP_NOT, parse_atom(), -1, -1);
    }
    if (c >= 'a' && c <= 'z') {
        cursor++;
        return new_node(OP_VAR, -1, -1, register_variable(c));
    }
    syntax_error("expected variable, ! or (");
    return -1;
}

int parse_and(void)
{
    int left = parse_atom();
    while (peek() == '&') {
        cursor++;
        left = new_node(OP_AND, left, parse_atom(), -1);
    }
    return left;
}

int parse_xor(void)
{
    int left = parse_and();
    while (peek() == '^') {
        cursor++;
        left = new_node(OP_XOR, left, parse_and(), -1);
    }
    return left;
}

int parse_or(void)
{
    int left = parse_xor();
    while (peek() == '|') {
        cursor++;
        left = new_node(OP_OR, left, parse_xor(), -1);
    }
    return left;
}

void parse_equations(void)
{
    while (peek() != -1) {
        int name = peek();
        if (name < 'a' || name > 'z')
            syntax_error("expected output name");
        if (output_count >= MAX_OUTPUTS)
            syntax_error("too many outputs");
        cursor++;
        if (peek() != '=')
            syntax_error("expected =");
        cursor++;
        output_name[output_count] = (char)name;
        output_root[output_count] = parse_or();
        output_count++;
        if (peek() != ';')
            syntax_error("expected ;");
        cursor++;
    }
    if (output_count == 0)
        syntax_error("no equations");
}

int eval_node(int node, int assignment)
{
    int op = node_op[node];
    if (op == OP_VAR)
        return (assignment >> node_var[node]) & 1;
    if (op == OP_NOT)
        return !eval_node(node_left[node], assignment);
    if (op == OP_AND)
        return eval_node(node_left[node], assignment) &&
               eval_node(node_right[node], assignment);
    if (op == OP_OR)
        return eval_node(node_left[node], assignment) ||
               eval_node(node_right[node], assignment);
    return eval_node(node_left[node], assignment) ^
           eval_node(node_right[node], assignment);
}

void print_header(void)
{
    int letter, k;
    for (letter = 0; letter < 26; letter++)
        if (var_used[letter])
            printf("%c", 'a' + letter);
    printf(" | ");
    for (k = 0; k < output_count; k++)
        printf("%c", output_name[k]);
    printf("\n");
}

void emit_table(void)
{
    int assignment, letter, k;
    int rows = 1 << var_count;
    print_header();
    for (assignment = 0; assignment < rows; assignment++) {
        for (letter = 0; letter < 26; letter++)
            if (var_used[letter])
                printf("%d",
                       (assignment >> var_index[letter]) & 1);
        printf(" | ");
        for (k = 0; k < output_count; k++) {
            int bit = eval_node(output_root[k], assignment);
            minterms[k] += bit;
            printf("%d", bit);
        }
        printf("\n");
    }
}

void summarize(void)
{
    int k;
    for (k = 0; k < output_count; k++)
        printf("%c: %d minterms of %d\n",
               output_name[k], minterms[k], 1 << var_count);
}

int main(void)
{
    read_text();
    cursor = 0;
    parse_equations();
    emit_table();
    summarize();
    return 0;
}
